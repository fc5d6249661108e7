// Command perfbench is the repository's benchmark. It drives the program
// from outside, through its public entry points, on one of four seeded
// workloads, checks every output, and prints the metrics as one JSON
// object on the last line of standard output:
//
//	bash perfbench/run.sh --workload table1_full --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// once untraced and once with a span around every call into a layer,
// and prints the per-layer metrics derived from those spans. See
// WORKLOADS.md for why each workload exists and what each metric means.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"magicstate/internal/core"
)

var workloads = []string{"table1_full", "route_styles", "serve_mixed", "provision"}

// setupRuns is how many times a run launches its worker; setup_s is the
// median launch-to-ready time.
const setupRuns = 15

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "worker":
			os.Exit(workerMain(os.Args[2:]))
		case "refs":
			os.Exit(refsMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

// workResult is what one measured run of a workload produced. A worker
// process prints it as its last line.
type workResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
	Ops       int                `json:"ops"`              // operations in the measured passes
	Wall      float64            `json:"wall_s"`           // seconds those passes took
	Digest    string             `json:"digest,omitempty"` // fingerprint of one pass's outputs
	LatencyMS []float64          `json:"latency_ms"`
	SetupS    []float64          `json:"setup_s,omitempty"`
	InputsS   []float64          `json:"inputs_s,omitempty"` // the part of SetupS spent generating inputs
	PeakRSSKB int64              `json:"peak_rss_kb,omitempty"`
	CPUS      float64            `json:"cpu_s,omitempty"` // CPU time of the measured passes' processes
	Gauges    map[string]float64 `json:"gauges,omitempty"`
}

// worker carries one workload's measurement state.
type worker struct {
	workload string
	seed     int64
	trace    bool
	workers  int
	rec      *Recorder
	res      workResult
}

// fail counts a failed operation and keeps its reason.
func (w *worker) fail(what string, err error) {
	w.res.Failed++
	w.note(what, err)
}

// note keeps the first few failure reasons for the report.
func (w *worker) note(what string, err error) {
	if len(w.res.Notes) >= 10 {
		return
	}
	if err != nil {
		what += ": " + err.Error()
	}
	w.res.Notes = append(w.res.Notes, what)
}

func (w *worker) gauge(name string, v float64) {
	if w.res.Gauges == nil {
		w.res.Gauges = map[string]float64{}
	}
	w.res.Gauges[name] = v
}

// children tracks started processes so every exit path can stop them.
var children struct {
	sync.Mutex
	procs map[*exec.Cmd]bool
}

func startChild(cmd *exec.Cmd) error {
	children.Lock()
	defer children.Unlock()
	if err := cmd.Start(); err != nil {
		return err
	}
	if children.procs == nil {
		children.procs = map[*exec.Cmd]bool{}
	}
	children.procs[cmd] = true
	return nil
}

func waitChild(cmd *exec.Cmd) error {
	err := cmd.Wait()
	children.Lock()
	delete(children.procs, cmd)
	children.Unlock()
	return err
}

// killChildren stops every child still running and waits for it.
func killChildren() {
	children.Lock()
	procs := children.procs
	children.procs = nil
	children.Unlock()
	for cmd := range procs {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	workers := fs.Int("workers", runtime.NumCPU(), "sweep-engine workers and connections")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *workload) || *seconds < 1 || *trace < 0 || *trace > 1 || *workers < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloads, ", "))
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, _ = filepath.Abs(tmp)
	cleanup := func() {
		killChildren()
		_ = os.RemoveAll(tmp)
	}
	defer cleanup()
	// A reader that closes the output early must not kill the run before
	// it stops msfud and removes its files.
	signal.Ignore(syscall.SIGPIPE)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanup()
		os.Exit(1)
	}()

	w := &worker{workload: *workload, seed: *seed, trace: *trace == 1, workers: *workers}
	spanFile := filepath.Join(tmp, "spans.jsonl")
	if *workload == "serve_mixed" {
		if w.trace {
			w.rec = newRecorder()
		}
		if err := serveWorkload(w, tmp, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if w.trace {
			if err := w.rec.WriteFile(spanFile); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
		}
	} else {
		res, err := runWorker(*workload, *seed, *seconds, *trace, *workers, spanFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		w.res = res
	}
	var spans []Span
	if w.trace {
		if spans, err = readSpans(spanFile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	report(os.Stdout, w, spans)
	return 0
}

// minPasses is how many whole passes an untraced run measures at least.
// On a shared 2-CPU box the same grid's wall time, and its CPU time,
// move by up to 30% from one pass to the next with the host's load, so
// the two sweeps average two grids. Their two-worker passes move more
// than the planner's, which is mostly one thread and holds with one.
func minPasses(workload string) int {
	if workload == "table1_full" || workload == "route_styles" {
		return 2
	}
	return 1
}

// runWorker measures a sweep or planner workload in child processes.
// Each measured pass runs in a fresh worker, because the pipeline
// memoizes FD candidates and stitch blocks process-wide and a pass must
// be cold. The worker is first launched setupRuns times just to time
// launch-to-ready; then passes run while another is expected to finish
// within the budget (at least one). A traced run makes one untraced and
// one traced pass.
func runWorker(workload string, seed int64, seconds, trace, workers int, spanFile string) (workResult, error) {
	var res workResult
	for i := 0; i < setupRuns; i++ {
		r, err := launchWorker(workload, seed, false, workers, spanFile, true)
		if err != nil {
			return res, err
		}
		res.SetupS = append(res.SetupS, r.SetupS...)
		res.InputsS = append(res.InputsS, r.InputsS...)
	}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	var first workResult
	for pass := 0; ; pass++ {
		r, err := launchWorker(workload, seed, false, workers, spanFile, false)
		if err != nil {
			return res, err
		}
		if pass == 0 {
			first = r
			res.Gauges = r.Gauges
			res.PeakRSSKB = r.PeakRSSKB
		}
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		res.Notes = append(res.Notes, r.Notes...)
		res.Ops += r.Ops
		res.Wall += r.Wall
		res.CPUS += r.CPUS
		res.LatencyMS = append(res.LatencyMS, r.LatencyMS...)
		if r.Digest != first.Digest {
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("pass %d outputs differ from pass 0", pass))
		}
		if trace == 1 || pass+1 >= minPasses(workload) && time.Now().Add(time.Duration(r.Wall*float64(time.Second))).After(deadline) {
			break
		}
	}
	if trace == 0 {
		return res, nil
	}
	r, err := launchWorker(workload, seed, true, workers, spanFile, false)
	if err != nil {
		return res, err
	}
	res.Attempted += r.Attempted
	res.Failed += r.Failed
	res.Notes = append(res.Notes, r.Notes...)
	if r.Digest != first.Digest {
		res.Failed++
		res.Notes = append(res.Notes, "traced pass outputs differ from the untraced pass")
	}
	if res.Gauges == nil {
		res.Gauges = map[string]float64{}
	}
	for k, v := range r.Gauges {
		res.Gauges[k] = v
	}
	res.Gauges["trace.overhead_s"] = r.Wall - first.Wall
	return res, nil
}

// launchWorker runs one worker process and returns its result, with its
// launch-to-ready time in SetupS and its peak RSS. A probe exits as soon
// as its inputs are ready.
func launchWorker(workload string, seed int64, trace bool, workers int, spanFile string, probe bool) (workResult, error) {
	var res workResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(self, "worker", "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-trace="+strconv.FormatBool(trace), "-workers", strconv.Itoa(workers),
		"-spans", spanFile, "-probe="+strconv.FormatBool(probe))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	t0 := time.Now()
	if err := startChild(cmd); err != nil {
		return res, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var lines []string
	var ready time.Duration
	var inputs float64
	for sc.Scan() {
		if len(lines) == 0 {
			if v, ok := strings.CutPrefix(sc.Text(), "ready "); ok {
				ready = time.Since(t0)
				inputs, _ = strconv.ParseFloat(v, 64)
			}
		}
		lines = append(lines, sc.Text())
	}
	if err := waitChild(cmd); err != nil {
		return res, fmt.Errorf("worker: %w", err)
	}
	if ready == 0 {
		return res, fmt.Errorf("worker never became ready")
	}
	if !probe {
		if len(lines) < 2 {
			return res, fmt.Errorf("worker printed no result")
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return res, fmt.Errorf("worker result: %w", err)
		}
	}
	res.SetupS = []float64{ready.Seconds()}
	res.InputsS = []float64{inputs}
	res.PeakRSSKB = cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss
	res.CPUS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	return res, nil
}

// workerMain is the child process of runWorker.
func workerMain(args []string) int {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	workload := fs.String("workload", "", "")
	seed := fs.Int64("seed", 1, "")
	trace := fs.Bool("trace", false, "")
	workers := fs.Int("workers", runtime.NumCPU(), "")
	spanFile := fs.String("spans", "", "")
	probe := fs.Bool("probe", false, "exit once the inputs are ready")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := &worker{workload: *workload, seed: *seed, trace: *trace, workers: *workers}
	if w.trace {
		w.rec = newRecorder()
	}
	// Ready means the inputs the program sees are generated. The
	// committed references are loaded after it: they are the benchmark's
	// own, not set-up the program does.
	t0 := time.Now()
	var run func() error
	switch *workload {
	case "table1_full", "route_styles":
		var cfgs []core.Config
		if *workload == "table1_full" {
			cfgs = table1Grid(w.seed)
		} else {
			var err error
			if cfgs, err = routeStylesGrid(w.seed); err != nil {
				fmt.Fprintln(os.Stderr, "worker:", err)
				return 1
			}
		}
		run = func() error {
			var refs []pointStats
			if _, err := loadRef(*workload, w.seed, &refs); err != nil {
				return err
			}
			sweepPass(w, cfgs, refs, *workload == "table1_full")
			return nil
		}
	case "provision":
		apps := planDraw(w.seed)
		run = func() error {
			var refs []planAnswer
			if _, err := loadRef(*workload, w.seed, &refs); err != nil {
				return err
			}
			provisionPass(w, apps, refs)
			return nil
		}
	default:
		fmt.Fprintf(os.Stderr, "worker: unknown workload %q\n", *workload)
		return 2
	}
	fmt.Printf("ready %.9f\n", time.Since(t0).Seconds())
	if *probe {
		return 0
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		return 1
	}
	if w.trace {
		if err := w.rec.WriteFile(*spanFile); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			return 1
		}
	}
	b, err := json.Marshal(w.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics in report order.
var endToEnd = []struct{ name, unit string }{
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"setup_s", "s"},
}

// perLayer lists the per-layer metrics in report order. A layer the
// workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"place.self_s", "s"}, {"place.fd_s", "s"}, {"place.gp_s", "s"}, {"place.calls", "count"},
	{"sim.self_s", "s"}, {"sim.calls", "count"}, {"sim.cycles", "count"}, {"sim.cycles_per_s", "1/s"}, {"sim.stalls", "count"},
	{"build.self_s", "s"}, {"build.stitch_s", "s"}, {"build.calls", "count"}, {"build.gates", "count"},
	{"assemble.self_s", "s"},
	{"plan.self_s", "s"}, {"plan.calls", "count"}, {"plan.build_s", "s"}, {"plan.critpath_s", "s"}, {"plan.gates", "count"},
	{"engine.wait_s", "s"}, {"engine.tail_s", "s"}, {"engine.stage_hits", "count"}, {"engine.stage_computes", "count"},
	{"store.open_s", "s"}, {"store.records", "count"}, {"store.disk_hits", "count"}, {"store.puts", "count"},
	{"serve.max_rps", "1/s"}, {"serve.p99_ms", "ms"}, {"serve.hot_p50_ms", "ms"}, {"serve.stored_p50_ms", "ms"}, {"serve.new_p50_ms", "ms"},
	{"serve.rejected", "count"}, {"serve.shared", "count"}, {"serve.gen_lag_ms", "ms"},
	{"model.headline_x", "x"},
	{"mem.peak_rss_mb", "MB"},
	{"trace.overhead_s", "s"},
}

// layerMetrics derives the per-layer metrics from the spans of a traced
// run and the values the run measured directly.
func layerMetrics(spans []Span, workers int, gauges map[string]float64) map[string]float64 {
	t := totals(spans)
	m := map[string]float64{
		"place.self_s": t.self["place"], "place.fd_s": t.kind[[2]string{"place", "FD"}],
		"place.gp_s": t.kind[[2]string{"place", "GP"}], "place.calls": float64(t.calls["place"]),
		"sim.self_s": t.self["sim"], "sim.calls": float64(t.calls["sim"]),
		"sim.cycles": float64(t.counts[[2]string{"sim", "cycles"}]), "sim.stalls": float64(t.counts[[2]string{"sim", "stalls"}]),
		"build.self_s": t.self["build"], "build.stitch_s": t.kind[[2]string{"build", "HS"}],
		"build.calls": float64(t.calls["build"]), "build.gates": float64(t.counts[[2]string{"build", "gates"}]),
		"assemble.self_s": t.self["assemble"],
		"plan.self_s":     t.self["plan"], "plan.calls": float64(t.calls["plan"]),
		"plan.build_s": t.self["plan.build"], "plan.critpath_s": t.self["plan.critpath"],
		"plan.gates": float64(t.counts[[2]string{"plan.build", "gates"}]),
	}
	if m["sim.self_s"] > 0 {
		m["sim.cycles_per_s"] = m["sim.cycles"] / m["sim.self_s"]
	}
	// Engine waiting: each point waits from the grid's start until a
	// worker picks it up; the tail runs from the first worker finding no
	// more points to the last point finishing.
	var gridStart int64 = -1
	var ends []int64
	for _, s := range spans {
		if s.Name == "engine.grid" {
			gridStart = s.Start
		}
	}
	for _, s := range spans {
		if s.Name == "engine.point" && gridStart >= 0 {
			m["engine.wait_s"] += float64(s.Start-gridStart) / 1e9
			ends = append(ends, s.End)
		}
	}
	if len(ends) > 0 {
		sort.Slice(ends, func(i, j int) bool { return ends[i] > ends[j] })
		m["engine.tail_s"] = float64(ends[0]-ends[min(workers, len(ends))-1]) / 1e9
	}
	for k, v := range gauges {
		m[k] = v
	}
	return m
}

// report prints a human-readable summary and, last, the JSON result.
func report(out *os.File, w *worker, spans []Span) {
	r := w.res
	metrics := map[string]metric{}
	var summary []string
	if w.trace {
		m := layerMetrics(spans, w.workers, r.Gauges)
		m["mem.peak_rss_mb"] = float64(r.PeakRSSKB) / 1024
		for _, l := range perLayer {
			metrics[l.name] = metric{m[l.name], l.unit}
		}
	} else {
		thr := 0.0
		if r.Wall > 0 {
			thr = float64(r.Ops) / r.Wall
		}
		vals := map[string]float64{
			"throughput_per_s": thr,
			"latency_p50_ms":   median(r.LatencyMS),
			"setup_s":          median(r.SetupS),
		}
		for _, e := range endToEnd {
			metrics[e.name] = metric{vals[e.name], e.unit}
		}
		// The same numbers under the names each workload's users know.
		alias := map[string]string{"table1_full": "points_per_s", "route_styles": "points_per_s",
			"provision": "plans_per_s", "serve_mixed": "serve_goodput_per_s"}[w.workload]
		summary = append(summary, fmt.Sprintf("%s=%.4g", alias, thr))
		if w.workload == "serve_mixed" {
			summary = append(summary, fmt.Sprintf("serve_p50_ms=%.4g serve_p99_ms=%.4g (at %d/s; serve_max_rps is per layer)",
				vals["latency_p50_ms"], quantile(r.LatencyMS, 0.99), refRate))
		}
		summary = append(summary, fmt.Sprintf("samples=%d setup_s=%.4g peak_rss_mb=%.4g",
			len(r.LatencyMS), vals["setup_s"], float64(r.PeakRSSKB)/1024))
		if len(r.InputsS) > 0 {
			summary = append(summary, fmt.Sprintf("setup_inputs_s=%.4g", median(r.InputsS)))
		}
		if r.CPUS > 0 {
			summary = append(summary, fmt.Sprintf("worker_cpu_s=%.4g", r.CPUS))
		}
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	summary = append(summary, fmt.Sprintf("fail_ratio=%.4g (%d/%d)", ratio, r.Failed, r.Attempted))
	fmt.Fprintf(out, "%s seed %d: %s\n", w.workload, w.seed, strings.Join(summary, " "))
	for _, n := range r.Notes {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", n)
	}
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, max(r.Attempted, 1), r.Failed, metrics})
	fmt.Fprintln(out, string(b))
}
