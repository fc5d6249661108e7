package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"magicstate/internal/bravyi"
	"magicstate/internal/core"
	"magicstate/internal/experiments"
	"magicstate/internal/layout"
	"magicstate/internal/mesh"
	"magicstate/internal/stats"
	"magicstate/internal/store"
	"magicstate/internal/sweep"
)

// table1Grid is the paper's full Table I grid, as experiments.Table1
// builds it: four strategies per level-1 capacity, and four strategies
// under both reuse policies per level-2 capacity.
func table1Grid(seed int64) []core.Config {
	var cfgs []core.Config
	for _, c := range experiments.PaperTable1L1 {
		for _, s := range []core.Strategy{core.StrategyRandom, core.StrategyLinear, core.StrategyForceDirected, core.StrategyGraphPartition} {
			cfgs = append(cfgs, core.Config{K: c, Levels: 1, Strategy: s, Seed: seed})
		}
	}
	for _, c := range experiments.PaperTable1L2 {
		k := isqrt(c)
		for _, s := range []core.Strategy{core.StrategyLinear, core.StrategyForceDirected, core.StrategyGraphPartition, core.StrategyStitch} {
			for _, reuse := range []bool{false, true} {
				cfgs = append(cfgs, core.Config{K: k, Levels: 2, Strategy: s, Reuse: reuse, Seed: seed})
			}
		}
	}
	return cfgs
}

func isqrt(n int) int {
	k := 0
	for (k+1)*(k+1) <= n {
		k++
	}
	return k
}

// headline is the reproduced Line(NR)/HS volume ratio at the largest
// level-2 capacity of a table1Grid result (HS takes its better reuse
// policy, as Table I does).
func headline(cfgs []core.Config, reps []*core.Report) float64 {
	kMax := isqrt(experiments.PaperTable1L2[len(experiments.PaperTable1L2)-1])
	var line, hs float64
	for i, c := range cfgs {
		if c.Levels != 2 || c.K != kMax || reps[i] == nil {
			continue
		}
		switch {
		case c.Strategy == core.StrategyLinear && !c.Reuse:
			line = reps[i].Volume
		case c.Strategy == core.StrategyStitch && (hs == 0 || reps[i].Volume < hs):
			hs = reps[i].Volume
		}
	}
	if hs == 0 {
		return 0
	}
	return line / hs
}

// routeStylesGrid crosses the non-FD strategies on two-level factories
// with every route mode and interaction style, and adds Line points on
// seeded defect maps sampled the way the ext-defects artifact samples
// them (over the factory's linear placement grid, one SplitRNG stream
// per map).
func routeStylesGrid(seed int64) ([]core.Config, error) {
	var cfgs []core.Config
	ks := []int{4, 6, 8, 10}
	for _, k := range ks {
		for _, s := range []core.Strategy{core.StrategyLinear, core.StrategyGraphPartition, core.StrategyStitch} {
			for _, m := range []mesh.RouteMode{mesh.RouteXY, mesh.RouteBox, mesh.RouteAdaptive} {
				for _, st := range []mesh.InteractionStyle{mesh.StyleBraiding, mesh.StyleLatticeSurgery, mesh.StyleTeleportation} {
					cfgs = append(cfgs, core.Config{K: k, Levels: 2, Reuse: true, Strategy: s, MeshMode: m, Style: st, Seed: seed})
				}
			}
		}
	}
	for i, k := range ks {
		f, err := bravyi.Build(bravyi.Params{K: k, Levels: 2, Reuse: true, Barriers: true})
		if err != nil {
			return nil, err
		}
		grid := layout.Linear(f)
		for j, rate := range []float64{0.02, 0.05} {
			dm := layout.SampleDefects(grid.W, grid.H, rate, stats.SplitRNG(seed, int64(2*i+j)))
			cfgs = append(cfgs, core.Config{K: k, Levels: 2, Reuse: true, Strategy: core.StrategyLinear, Seed: seed, Defects: dm.String()})
		}
	}
	return cfgs, nil
}

// pointStats is every simulated statistic of one grid point; it is what
// the committed references pin.
type pointStats struct {
	Latency         int     `json:"latency"`
	Area            int     `json:"area"`
	Stalls          int     `json:"stalls"`
	CriticalLatency int     `json:"critical_latency"`
	PermLatency     int     `json:"perm_latency"`
	Volume          float64 `json:"volume"`
}

func statsOf(rep *core.Report) pointStats {
	return pointStats{
		Latency: rep.Latency, Area: rep.Area, Stalls: rep.Stalls,
		CriticalLatency: rep.CriticalLatency, PermLatency: rep.PermLatency, Volume: rep.Volume,
	}
}

// checkPoint applies the invariants every report must satisfy, and the
// committed reference when there is one.
func checkPoint(cfg core.Config, rep *core.Report, ref *pointStats) error {
	if rep.Volume != float64(rep.Latency)*float64(rep.Area) {
		return fmt.Errorf("volume %g != latency %d x area %d", rep.Volume, rep.Latency, rep.Area)
	}
	// The critical path is priced with the braid cost model, so it bounds
	// only braiding runs; surgery and teleportation can finish earlier.
	if cfg.Style == mesh.StyleBraiding && rep.Latency < rep.CriticalLatency {
		return fmt.Errorf("latency %d below critical latency %d", rep.Latency, rep.CriticalLatency)
	}
	if ref != nil && statsOf(rep) != *ref {
		return fmt.Errorf("stats %+v differ from reference %+v", statsOf(rep), *ref)
	}
	return nil
}

// checkPaths re-simulates a report's placement with RecordPaths on: the
// braids must never overlap, and recording must not move any statistic.
func checkPaths(cfg core.Config, rep *core.Report) error {
	cfg.RecordPaths = true
	sim, err := mesh.Simulate(rep.Factory.Circuit, rep.Placement, core.MeshConfigOf(cfg))
	if err != nil {
		return fmt.Errorf("path re-simulation: %w", err)
	}
	if err := sim.CheckNoOverlaps(); err != nil {
		return err
	}
	if sim.Latency != rep.Latency || sim.Stalls != rep.Stalls || sim.Area != rep.Area {
		return fmt.Errorf("recording paths changed the simulation: latency %d/%d stalls %d/%d area %d/%d",
			sim.Latency, rep.Latency, sim.Stalls, rep.Stalls, sim.Area, rep.Area)
	}
	return nil
}

// gridPass is one cold run of a grid: reports, per-point failures, the
// wall time of each point (from a worker picking it up to its report)
// and of the whole pass.
type gridPass struct {
	reps    []*core.Report
	errs    []error
	pointMS []float64
	wall    time.Duration
	stage   sweep.StageStats
}

func newGridPass(n int) gridPass {
	return gridPass{reps: make([]*core.Report, n), errs: make([]error, n), pointMS: make([]float64, n)}
}

// runGrid runs cfgs once on a fresh engine, the way paperbench runs a
// grid: sweep.Map over Engine.RunOne. A failing point does not stop the
// pass; it is counted.
func runGrid(cfgs []core.Config, workers int) gridPass {
	g := newGridPass(len(cfgs))
	eng := sweep.New(sweep.Options{Workers: workers})
	t0 := time.Now()
	_, _ = sweep.Map(context.Background(), eng, cfgs, func(i int, cfg core.Config) (struct{}, error) {
		t := time.Now()
		g.reps[i], g.errs[i] = eng.RunOne(cfg)
		g.pointMS[i] = float64(time.Since(t).Nanoseconds()) / 1e6
		return struct{}{}, nil
	})
	g.wall = time.Since(t0)
	g.stage = eng.StageStats()
	return g
}

// onceMemo shares one computation per key among concurrent callers.
type onceMemo struct {
	mu sync.Mutex
	m  map[store.Key]*onceEntry
}

type onceEntry struct {
	once sync.Once
	v    any
	err  error
}

func (o *onceMemo) do(k store.Key, fn func() (any, error)) (any, error) {
	o.mu.Lock()
	if o.m == nil {
		o.m = make(map[store.Key]*onceEntry)
	}
	e, ok := o.m[k]
	if !ok {
		e = new(onceEntry)
		o.m[k] = e
	}
	o.mu.Unlock()
	e.once.Do(func() { e.v, e.err = fn() })
	return e.v, e.err
}

// runGridTraced runs cfgs once through the pipeline's stage functions
// with a span around each call. Build and placement artifacts are shared
// by stage key exactly as the engine's stage tier shares them, so the
// traced pass does the same work as runGrid.
func runGridTraced(rec *Recorder, cfgs []core.Config, workers int) gridPass {
	g := newGridPass(len(cfgs))
	eng := sweep.New(sweep.Options{Workers: workers})
	var builds, places onceMemo
	ctx := context.Background()
	grid := rec.Begin("engine.grid", "", -1, 0)
	t0 := time.Now()
	_, _ = sweep.Map(ctx, eng, cfgs, func(i int, cfg core.Config) (struct{}, error) {
		op := int64(i)
		kind := cfg.Strategy.String()
		t := time.Now()
		pt := rec.Begin("engine.point", kind, op, 0)
		defer func() {
			rec.End(pt)
			g.pointMS[i] = float64(time.Since(t).Nanoseconds()) / 1e6
		}()
		bv, err := builds.do(store.StageKeyOf(core.StageBuild, cfg), func() (any, error) {
			s := rec.Begin("build", kind, op, pt.id())
			defer rec.End(s)
			b, err := core.BuildStage(ctx, cfg)
			if err == nil {
				s.count("gates", int64(len(b.Factory.Circuit.Gates)))
			}
			return b, err
		})
		if err != nil {
			g.errs[i] = err
			return struct{}{}, nil
		}
		b := bv.(*core.BuildArtifact)
		placeFn := func() (any, error) {
			s := rec.Begin("place", kind, op, pt.id())
			defer rec.End(s)
			return core.PlaceStage(ctx, cfg, b)
		}
		var pv any
		if cfg.Strategy == core.StrategyStitch {
			pv, err = placeFn()
		} else {
			pv, err = places.do(store.StageKeyOf(core.StagePlace, cfg), placeFn)
		}
		if err != nil {
			g.errs[i] = err
			return struct{}{}, nil
		}
		p := pv.(*core.PlaceArtifact)
		sim := p.Sim
		if sim == nil {
			s := rec.Begin("sim", kind, op, pt.id())
			sim, err = core.SimStage(ctx, cfg, b, p)
			if err == nil {
				s.count("cycles", int64(sim.Latency))
				s.count("stalls", int64(sim.Stalls))
			}
			rec.End(s)
			if err != nil {
				g.errs[i] = err
				return struct{}{}, nil
			}
		}
		s := rec.Begin("assemble", kind, op, pt.id())
		g.reps[i] = core.Assemble(cfg, b, p, sim)
		rec.End(s)
		return struct{}{}, nil
	})
	g.wall = time.Since(t0)
	rec.End(grid)
	return g
}

// sweepPass runs one cold pass of a grid workload, traced or not, and
// checks every point. A pass needs a fresh process to be cold: the
// pipeline memoizes FD candidates and stitch blocks process-wide.
func sweepPass(w *worker, cfgs []core.Config, refs []pointStats, table1 bool) {
	if refs != nil && len(refs) != len(cfgs) {
		w.res.Attempted++
		w.fail("reference", fmt.Errorf("reference has %d points, grid has %d", len(refs), len(cfgs)))
		refs = nil
	}
	var g gridPass
	if w.trace {
		g = runGridTraced(w.rec, cfgs, w.workers)
	} else {
		g = runGrid(cfgs, w.workers)
		w.gauge("engine.stage_hits", float64(g.stage.BuildHits+g.stage.PlaceHits+g.stage.SimHits))
		w.gauge("engine.stage_computes", float64(g.stage.BuildComputes+g.stage.PlaceComputes+g.stage.SimComputes))
	}
	w.res.Ops = len(cfgs)
	w.res.Wall = g.wall.Seconds()
	w.res.LatencyMS = g.pointMS
	all := make([]pointStats, len(cfgs))
	for i, cfg := range cfgs {
		w.res.Attempted++
		var ref *pointStats
		if refs != nil {
			ref = &refs[i]
		}
		err := g.errs[i]
		if err == nil {
			all[i] = statsOf(g.reps[i])
			err = checkPoint(cfg, g.reps[i], ref)
		}
		if err != nil {
			w.fail(fmt.Sprintf("point %d (%v K=%d L=%d)", i, cfg.Strategy, cfg.K, cfg.Levels), err)
		}
	}
	w.res.Digest = digest(all)
	// Path audit on a seeded sample (after the pass, untimed).
	rng := rand.New(rand.NewSource(w.seed))
	for _, i := range rng.Perm(len(cfgs))[:min(8, len(cfgs))] {
		if g.reps[i] == nil {
			continue
		}
		w.res.Attempted++
		if err := checkPaths(cfgs[i], g.reps[i]); err != nil {
			w.fail(fmt.Sprintf("paths point %d", i), err)
		}
	}
	if table1 {
		w.gauge("model.headline_x", headline(cfgs, g.reps))
	}
}

// digest fingerprints a pass's outputs, so passes in different
// processes can be compared.
func digest(v any) string {
	b, _ := json.Marshal(v)
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}
