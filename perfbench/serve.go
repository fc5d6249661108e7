package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"magicstate"
	"magicstate/internal/store"
)

// Load shape of serve_mixed. The generator is open loop: request i of a
// phase is due at i/rate seconds, whatever happened to earlier ones, and
// its latency runs from that due time. At most nproc connections carry
// the load, so a stalled server delays later requests and the delay is
// counted.
const (
	refRate = 400 // requests/s of the fixed-rate phase
	// p99Limit is the latency limit a ladder rung must meet.
	p99Limit = 100 * time.Millisecond
	// The mix is msfuload's default soak (-dup 0.7 -hot 4 -batch-every
	// 20): every batchEvery-th operation is a /v1/batch job of batchSize
	// points, polled to completion, and every other one is a
	// /v1/optimize request that draws from a hotSet-point hot set with
	// probability dupPM per mille. msfuload draws the rest uniformly from
	// a 64-point universe that is all memo hits after warm-up; here that
	// rest is split evenly between stored points (disk reads) and new
	// points (fresh computes). The even split is an assumption: no
	// observed traffic backs it.
	batchEvery = 20
	batchSize  = 3
	hotSet     = 4
	dupPM      = 700
	storedPM   = 150 // the remaining 150 per mille are new points
	// burstOps is the size of one closed-loop capacity burst, and
	// bursts how many of them a run measures; throughput_per_s is their
	// median goodput.
	burstOps = 2000
	bursts   = 9
	// bootRuns is how many times msfud is launched; setup_s is the median
	// launch-to-ready time.
	bootRuns = 15
)

// storedShare is how many stored points n operations of the mix may
// ask for: the expected share and a margin for the seeded draw.
func storedShare(n int) int {
	return n*(batchEvery-1)/batchEvery*storedPM/1000 + n/50 + 50
}

// ladder is the fixed coarse set of offered rates, in requests/s, that
// the traced run climbs to find serve.max_rps. The rungs are a factor
// four apart because the capacity for this mix drifts by about that much
// with the host's load.
var ladder = []int{125, 500, 2000, 8000, 32000}

// stepTime is how long a ladder rung lasts: at least a second, and long
// enough for 1100 requests, so its p99 has ten samples beyond it.
func stepTime(rate int) time.Duration {
	return max(time.Second, time.Duration(1100*float64(time.Second)/float64(rate)))
}

// ladderStored is the highest rung whose stored-class requests are
// provisioned in the store; above it the stored share is served as new
// points.
const ladderStored = 8000

// servePoint is one /v1/optimize request body.
type servePoint struct {
	Capacity int    `json:"capacity"`
	Levels   int    `json:"levels"`
	Reuse    bool   `json:"reuse,omitempty"`
	Strategy string `json:"strategy"`
	Seed     int64  `json:"seed"`
	Style    string `json:"style"`
}

// servedResult is msfud's answer body.
type servedResult struct {
	Strategy           string  `json:"strategy"`
	Latency            int     `json:"latency"`
	Area               int     `json:"area"`
	Volume             float64 `json:"volume"`
	CriticalLatency    int     `json:"critical_latency"`
	CriticalVolume     float64 `json:"critical_volume"`
	PermutationLatency int     `json:"permutation_latency,omitempty"`
}

func (p servePoint) batchPoint() (magicstate.BatchPoint, error) {
	st, err := magicstate.ParseStrategy(p.Strategy)
	if err != nil {
		return magicstate.BatchPoint{}, err
	}
	style, err := magicstate.ParseStyle(p.Style)
	if err != nil {
		return magicstate.BatchPoint{}, err
	}
	return magicstate.BatchPoint{
		Spec: magicstate.FactorySpec{Capacity: p.Capacity, Levels: p.Levels, Reuse: p.Reuse},
		Opts: magicstate.Options{Seed: p.Seed, Style: style}.WithStrategy(st),
	}, nil
}

func resultOf(r *magicstate.Result) servedResult {
	return servedResult{
		Strategy: r.Strategy, Latency: r.Latency, Area: r.Area, Volume: r.Volume,
		CriticalLatency: r.CriticalLatency, CriticalVolume: r.CriticalVolume,
		PermutationLatency: r.PermutationLatency,
	}
}

var serveStyles = []string{"braiding", "surgery", "teleport"}

// storedPoint draws a cheap cached point: small one- and two-level
// factories under the mappers that are not force-directed. seed makes
// it distinct from every other point.
func storedPoint(rng *rand.Rand, seed int64) servePoint {
	p := servePoint{Seed: seed, Style: serveStyles[rng.Intn(3)], Strategy: []string{"line", "gp", "random"}[rng.Intn(3)]}
	if rng.Intn(4) == 0 {
		p.Capacity, p.Levels, p.Reuse = 4, 2, rng.Intn(2) == 0
		if p.Strategy == "random" {
			p.Strategy = "hs"
		}
	} else {
		p.Capacity, p.Levels = []int{2, 4, 6, 8}[rng.Intn(4)], 1
	}
	return p
}

// newPoint draws a point nobody has asked for: a single-level factory
// under a seeded mapper, so the server really places and simulates it.
func newPoint(rng *rand.Rand, seed int64) servePoint {
	return servePoint{
		Capacity: []int{2, 4, 6}[rng.Intn(3)], Levels: 1, Seed: seed,
		Strategy: []string{"gp", "random"}[rng.Intn(2)], Style: serveStyles[rng.Intn(3)],
	}
}

// request is one scheduled operation of the generator.
type request struct {
	class string // hot, stored, new or batch
	point servePoint
	batch []byte         // body of a batch job
	want  []servedResult // nil for new points (checked by sample later)
	due   time.Time
}

// phaseStats is what one open-loop phase measured.
type phaseStats struct {
	sent      int
	failed    int
	refused   int
	latMS     []float64
	byClass   map[string][]float64
	lagMS     []float64
	drainMS   float64       // from the last due time until every request finished
	wall      time.Duration // from the first due time until every request finished
	failures  []string
	newServed []servedPair
}

type servedPair struct {
	p   servePoint
	got servedResult
}

// serveRun is the state of one serve_mixed run.
type serveRun struct {
	w        *worker
	dir      string
	bin      string
	storeDir string
	rng      *rand.Rand
	hot      []servePoint
	stored   []servePoint
	expect   map[servePoint]servedResult
	nextSeed int64
	nextStor int
	ops      int // operations drawn so far
	base     string
	proc     *exec.Cmd
	clients  []*http.Client
}

// serveWorkload measures serve_mixed: the fixed-rate phase takes half of
// the run's seconds (4000 requests at 20 s), interleaved with the
// capacity bursts; a traced run adds a traced fixed-rate phase and the
// ladder.
func serveWorkload(w *worker, dir string, seconds int) error {
	refN := refRate * seconds / 2
	r := &serveRun{w: w, dir: dir, rng: rand.New(rand.NewSource(w.seed)), expect: map[servePoint]servedResult{}}
	r.bin = filepath.Join(dir, "msfud")
	r.storeDir = filepath.Join(dir, "store")
	build := exec.Command("go", "build", "-o", r.bin, "./cmd/msfud")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := startChild(build); err != nil {
		return fmt.Errorf("build msfud: %w", err)
	}
	if err := waitChild(build); err != nil {
		return fmt.Errorf("build msfud: %w", err)
	}
	// Seeds of generated points start far from the hot/stored range so
	// classes never share a point.
	r.nextSeed = 1_000_000 + w.seed*10_000_000
	nStored := storedShare(refN) + bursts*storedShare(burstOps)
	if w.trace {
		nStored += storedShare(refN)
		for _, rate := range ladder {
			if rate <= ladderStored {
				nStored += storedShare(int(float64(rate) * stepTime(rate).Seconds()))
			}
		}
	}
	if err := r.fill(hotSet, nStored); err != nil {
		return err
	}
	var opens []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		st, err := store.Open(r.storeDir)
		if err != nil {
			return fmt.Errorf("open store: %w", err)
		}
		opens = append(opens, time.Since(t).Seconds())
		if err := st.Close(); err != nil {
			return fmt.Errorf("close store: %w", err)
		}
	}
	w.gauge("store.open_s", median(opens))

	// Boot several times, each recovering the store; the last one serves.
	var setups []float64
	for i := 0; i < bootRuns; i++ {
		d, err := r.boot()
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < bootRuns-1 {
			if _, err := r.stop(); err != nil {
				return err
			}
		}
	}
	w.res.SetupS = setups
	defer r.stop()
	r.clients = make([]*http.Client, w.workers)
	for i := range r.clients {
		r.clients[i] = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	before, err := r.stats()
	if err != nil {
		return err
	}
	for _, p := range r.hot { // warm the memo: hot points are memo hits from now on
		w.res.Attempted++
		got, err := r.optimize(r.clients[0], p)
		if err == nil && got != r.expect[p] {
			err = fmt.Errorf("served %+v, filled %+v", got, r.expect[p])
		}
		if err != nil {
			w.res.Failed++
			w.note("warm "+fmt.Sprint(p), err)
		}
	}

	// The fixed-rate phase runs in segments with a capacity burst after
	// each, so both sample the shared host across the whole run.
	// Capacity is the same mix, closed loop over the nproc connections:
	// goodput at the fixed rate would only echo the offered rate. The run
	// reports the burst of median goodput (bursts is odd).
	var ref phaseStats
	var sampled []servedPair
	var runs []phaseStats
	for i := 0; i < bursts; i++ {
		seg := r.phase(refN*(i+1)/bursts-refN*i/bursts, refRate, nil)
		r.account(seg, true)
		ref.latMS = append(ref.latMS, seg.latMS...)
		sampled = append(sampled, seg.newServed...)
		st := r.phase(burstOps, 0, nil)
		r.account(st, true)
		fmt.Fprintf(os.Stderr, "perfbench: burst %d: %d answers in %.3gs, failed %d\n", i, st.sent-st.failed, st.wall.Seconds(), st.failed)
		sampled = append(sampled, st.newServed...)
		runs = append(runs, st)
	}
	w.gauge("serve.p99_ms", quantile(ref.latMS, 0.99))
	w.res.LatencyMS = ref.latMS
	goodput := func(st phaseStats) float64 { return float64(st.sent-st.failed) / st.wall.Seconds() }
	sort.Slice(runs, func(i, j int) bool { return goodput(runs[i]) < goodput(runs[j]) })
	mid := runs[len(runs)/2]
	w.res.Ops, w.res.Wall = mid.sent-mid.failed, mid.wall.Seconds()
	if w.trace {
		traced := r.phase(refN, refRate, w.rec)
		r.account(traced, true)
		sampled = append(sampled, traced.newServed...)
		w.gauge("trace.overhead_s", (sum(traced.latMS)-sum(ref.latMS))/1e3)
		w.gauge("serve.gen_lag_ms", quantile(traced.lagMS, 0.99))
		for _, c := range []string{"hot", "stored", "new"} {
			w.gauge("serve."+c+"_p50_ms", median(traced.byClass[c]))
		}
	}
	// The counters are read before the ladder: how far it climbs depends
	// on the machine, and the counts must repeat for a fixed seed.
	after, err := r.stats()
	if err != nil {
		return err
	}
	if w.trace {
		maxRPS, served := r.climb()
		sampled = append(sampled, served...)
		w.gauge("serve.max_rps", float64(maxRPS))
	}
	w.gauge("store.records", after.num("cache.stored_records"))
	w.gauge("store.puts", after.num("cache.stored_records")-before.num("cache.stored_records"))
	w.gauge("store.disk_hits", after.num("cache.disk_hits"))
	w.gauge("serve.rejected", after.num("admission.queue_rejected")+after.num("admission.rate_limited"))
	w.gauge("serve.shared", after.num("singleflight.shared"))
	w.gauge("engine.stage_hits", after.num("cache.stage_build_hits")+after.num("cache.stage_place_hits")+after.num("cache.stage_sim_hits"))
	w.gauge("engine.stage_computes", after.num("cache.stage_build_computes")+after.num("cache.stage_place_computes")+after.num("cache.stage_sim_computes"))
	rss, err := r.stop()
	if err != nil {
		return err
	}
	w.res.PeakRSSKB = rss

	// Served answers must equal the library's own, computed in process.
	r.rng.Shuffle(len(sampled), func(i, j int) { sampled[i], sampled[j] = sampled[j], sampled[i] })
	check := append([]servedPair(nil), sampled[:min(12, len(sampled))]...)
	for _, p := range append(r.hot[:4:4], r.stored[:4]...) {
		check = append(check, servedPair{p, r.expect[p]})
	}
	for _, sp := range check {
		got := sp.got
		w.res.Attempted++
		bp, err := sp.p.batchPoint()
		if err == nil {
			var res *magicstate.Result
			res, err = magicstate.Optimize(bp.Spec, bp.Opts)
			if err == nil && resultOf(res) != got {
				err = fmt.Errorf("served %+v, Optimize gives %+v", got, resultOf(res))
			}
		}
		if err != nil {
			w.res.Failed++
			w.note(fmt.Sprintf("optimize check %+v", sp.p), err)
		}
	}
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// fill computes the hot and stored points into a fresh store through
// the library's Batcher (the same cache tier msfud serves from) and
// keeps their answers to check the server against.
func (r *serveRun) fill(nHot, nStored int) error {
	seed := int64(1) + r.w.seed*10_000_000
	for i := 0; i < nHot+nStored; i++ {
		p := storedPoint(r.rng, seed)
		seed++
		if i < nHot {
			r.hot = append(r.hot, p)
		} else {
			r.stored = append(r.stored, p)
		}
	}
	all := append(append([]servePoint(nil), r.hot...), r.stored...)
	pts := make([]magicstate.BatchPoint, len(all))
	for i, p := range all {
		bp, err := p.batchPoint()
		if err != nil {
			return err
		}
		pts[i] = bp
	}
	b, err := magicstate.NewBatcher(magicstate.BatcherOptions{Parallelism: r.w.workers, Checkpoint: r.storeDir})
	if err != nil {
		return fmt.Errorf("fill: %w", err)
	}
	res, err := b.OptimizeBatch(pts, magicstate.BatchOptions{})
	if cerr := b.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("fill: %w", err)
	}
	for i, p := range all {
		r.expect[p] = resultOf(res[i])
	}
	return nil
}

// boot starts msfud on the store and returns the time from launch until
// it answers /v1/stats. (/v1/ping exists only in cluster mode.)
func (r *serveRun) boot() (time.Duration, error) {
	addrFile := filepath.Join(r.dir, "addr")
	_ = os.Remove(addrFile)
	cmd := exec.Command(r.bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-store", r.storeDir,
		"-parallel", strconv.Itoa(r.w.workers))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(r.w.workers))
	cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
	t0 := time.Now()
	if err := startChild(cmd); err != nil {
		return 0, fmt.Errorf("start msfud: %w", err)
	}
	r.proc = cmd
	for time.Since(t0) < 60*time.Second {
		if b, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(b)) > 0 {
			r.base = "http://" + strings.TrimSpace(string(b))
			resp, err := http.Get(r.base + "/v1/stats")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return time.Since(t0), nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	return 0, fmt.Errorf("msfud did not come up within 60s")
}

// stop shuts msfud down gracefully and returns its peak RSS in KiB.
func (r *serveRun) stop() (int64, error) {
	if r.proc == nil {
		return 0, nil
	}
	cmd := r.proc
	r.proc = nil
	_ = cmd.Process.Signal(syscall.SIGTERM)
	err := waitChild(cmd)
	// msfud starts serving before it installs its SIGTERM handler, so a
	// stop right after a boot can kill it by the signal's default action
	// instead of shutting it down. Either way it has stopped as asked.
	if ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		err = nil
	}
	if err != nil {
		return 0, fmt.Errorf("msfud exit: %w", err)
	}
	return cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss, nil
}

// stats is a decoded /v1/stats body.
type statsBody map[string]any

func (r *serveRun) stats() (statsBody, error) {
	resp, err := http.Get(r.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s statsBody
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return s, nil
}

// num reads a dotted path of a stats body as a number (0 if absent).
func (s statsBody) num(path string) float64 {
	var v any = map[string]any(s)
	for _, k := range strings.Split(path, ".") {
		m, ok := v.(map[string]any)
		if !ok {
			return 0
		}
		v = m[k]
	}
	f, _ := v.(float64)
	return f
}

func (r *serveRun) optimize(c *http.Client, p servePoint) (servedResult, error) {
	body, _ := json.Marshal(p)
	var got servedResult
	resp, err := c.Post(r.base+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		return got, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return got, &statusError{resp.StatusCode, strings.TrimSpace(string(b))}
	}
	err = json.NewDecoder(resp.Body).Decode(&got)
	return got, err
}

type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.msg) }

// batch submits a /v1/batch job and polls it to completion.
func (r *serveRun) batch(c *http.Client, body []byte) ([]servedResult, error) {
	resp, err := c.Post(r.base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, &statusError{resp.StatusCode, "batch submit"}
	}
	if err != nil {
		return nil, err
	}
	for {
		resp, err := c.Get(r.base + "/v1/jobs/" + sub.JobID)
		if err != nil {
			return nil, err
		}
		var job struct {
			Status  string         `json:"status"`
			Error   string         `json:"error"`
			Results []servedResult `json:"results"`
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch job.Status {
		case "done":
			return job.Results, nil
		case "failed":
			return nil, fmt.Errorf("batch job failed: %s", job.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// draw picks the next request of the mix.
func (r *serveRun) draw() request {
	r.ops++
	if r.ops%batchEvery == 0 {
		var pts []servePoint
		var want []servedResult
		for i := 0; i < batchSize; i++ {
			p := r.hot[r.rng.Intn(len(r.hot))]
			pts = append(pts, p)
			want = append(want, r.expect[p])
		}
		body, _ := json.Marshal(map[string]any{"points": pts})
		return request{class: "batch", batch: body, want: want}
	}
	c := r.rng.Intn(1000)
	switch {
	case c < dupPM:
		return r.single("hot", r.hot[r.rng.Intn(len(r.hot))], true)
	case c < dupPM+storedPM && r.nextStor < len(r.stored):
		p := r.stored[r.nextStor]
		r.nextStor++
		return r.single("stored", p, true)
	}
	r.nextSeed++
	return r.single("new", newPoint(r.rng, r.nextSeed), false)
}

func (r *serveRun) single(class string, p servePoint, known bool) request {
	q := request{class: class, point: p}
	if known {
		q.want = []servedResult{r.expect[p]}
	}
	return q
}

// phase offers n requests of the mix at rate requests/s, open loop, and
// measures every request from its due time. With rate 0 every request
// is due at once, so the connections send closed loop, each its next
// request as soon as its last is answered: a capacity burst. With rec
// set, each request is a span.
func (r *serveRun) phase(n, rate int, rec *Recorder) phaseStats {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = r.draw()
	}
	st := phaseStats{byClass: map[string][]float64{}}
	// Buffered to the number of sends, so the scheduler never blocks on
	// busy connections and its own lateness stays measurable.
	jobs := make(chan int, n)
	type outcome struct {
		lat     float64
		err     error
		refused bool
		got     []servedResult
	}
	out := make([]outcome, n)
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range jobs {
				q := reqs[i]
				s := rec.Begin("serve.request", q.class, int64(i), 0)
				var got []servedResult
				var err error
				if q.class == "batch" {
					got, err = r.batch(c, q.batch)
				} else {
					var one servedResult
					one, err = r.optimize(c, q.point)
					got = []servedResult{one}
				}
				rec.End(s)
				o := outcome{lat: float64(time.Since(q.due).Nanoseconds()) / 1e6, err: err, got: got}
				var se *statusError
				if err != nil && errors.As(err, &se) && (se.code == http.StatusTooManyRequests || se.code == http.StatusServiceUnavailable) {
					o.refused = true
				}
				out[i] = o
			}
		}(c)
	}
	start := time.Now().Add(5 * time.Millisecond)
	for i := range reqs {
		due := start
		if rate > 0 {
			due = start.Add(time.Duration(float64(i) / float64(rate) * float64(time.Second)))
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		reqs[i].due = due
		st.lagMS = append(st.lagMS, float64(time.Since(due).Nanoseconds())/1e6)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	// A backlog that grew during the phase takes longer than the latency
	// limit to drain.
	st.drainMS = float64(time.Since(reqs[n-1].due).Nanoseconds()) / 1e6
	st.wall = time.Since(start)
	for i, o := range out {
		q := reqs[i]
		st.sent++
		err := o.err
		if err == nil && q.want != nil && !equalResults(o.got, q.want) {
			err = fmt.Errorf("served %+v, want %+v", o.got, q.want)
		}
		if err != nil {
			st.failed++
			if o.refused {
				st.refused++
			}
			if len(st.failures) < 5 {
				st.failures = append(st.failures, fmt.Sprintf("%s request at %d/s: %v", q.class, rate, err))
			}
			continue
		}
		st.latMS = append(st.latMS, o.lat)
		st.byClass[q.class] = append(st.byClass[q.class], o.lat)
		if q.class == "new" {
			st.newServed = append(st.newServed, servedPair{q.point, o.got[0]})
		}
	}
	// A refused or failed request misses any latency limit.
	for i := 0; i < st.failed; i++ {
		st.latMS = append(st.latMS, float64(time.Hour.Milliseconds()))
	}
	return st
}

func equalResults(a, b []servedResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// account adds a phase to the run's operation counts. Requests of the
// ladder rung that exceeded capacity were refused by design; they count
// as attempted, and as failed only when the answer was wrong.
func (r *serveRun) account(st phaseStats, counts bool) {
	r.w.res.Attempted += st.sent
	for _, f := range st.failures {
		if counts {
			r.w.note(f, nil)
		}
	}
	if counts {
		r.w.res.Failed += st.failed
	} else {
		r.w.res.Failed += st.failed - st.refused
	}
}

// climb offers the ladder's rates in turn and returns the highest that
// met the p99 limit and drained within it.
func (r *serveRun) climb() (maxRPS int, served []servedPair) {
	limit := float64(p99Limit.Milliseconds())
	for _, rate := range ladder {
		// A rung that narrowly fails is tried once more, so one stall of
		// the shared machine does not end the climb; a rate well beyond
		// capacity builds a backlog ten times the limit and is not
		// retried.
		ok := false
		for try := 0; try < 2 && !ok; try++ {
			st := r.phase(int(float64(rate)*stepTime(rate).Seconds()), rate, nil)
			p99 := quantile(st.latMS, 0.99)
			ok = st.failed == 0 && st.drainMS <= limit && p99 <= limit
			fmt.Fprintf(os.Stderr, "perfbench: ladder %d/s: p99 %.3gms drain %.3gms failed %d refused %d lag p99 %.3gms\n",
				rate, p99, st.drainMS, st.failed, st.refused, quantile(st.lagMS, 0.99))
			r.account(st, ok)
			served = append(served, st.newServed...)
			if p99 > 10*limit {
				break
			}
		}
		if !ok {
			return maxRPS, served
		}
		maxRPS = rate
	}
	return maxRPS, served
}
