package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"magicstate"
	"magicstate/internal/bravyi"
	"magicstate/internal/resource"
	"magicstate/internal/system"
)

// planBands fixes the per-state error targets (log10 of TCount's share
// of the error budget) a provision draw uses, with how many
// applications of each it holds. The planner's cost depends on the
// target alone — it fixes which Bravyi-Haah candidates get built — so a
// draw with a fixed band mix costs the same for every seed, while the
// seed still picks each application's T count, budget and demand rate.
// Band centres sit at least a quarter decade inside ranges where the
// candidate set is constant at this commit; -15 is below every
// candidate's reach, so its answer is the planner's error. The median
// plan falls inside the largest band rather than between two bands, so
// its time does not jump with the order the bands' timings happen to
// fall in.
var planBands = []struct {
	log10Target float64
	n           int
}{
	{-11.5, 2},  // cheapest: few candidates need three levels
	{-10.0, 2},  // K=1..2 three-level builds
	{-9.0, 5},   // wider three-level builds; the median plan is one of these
	{-13.25, 1}, // the paper's 1e12-scale sizing: four-level candidates
	{-15.0, 1},  // unreachable: every candidate is priced, then an error
}

// planDraw is one seeded draw of applications, in run order.
func planDraw(seed int64) []magicstate.Application {
	rng := rand.New(rand.NewSource(seed))
	var apps []magicstate.Application
	for _, b := range planBands {
		for i := 0; i < b.n; i++ {
			target := b.log10Target + 0.2*(rng.Float64()-0.5)
			// T spans 1e8..1e14, limited so the budget stays in [1e-4, 0.5].
			lo := math.Max(8, -4-target)
			hi := math.Min(14, math.Log10(0.5)-target)
			u := lo + (hi-lo)*rng.Float64()
			t := math.Round(math.Pow(10, u))
			apps = append(apps, magicstate.Application{
				TCount:         t,
				ErrorBudget:    math.Pow(10, target) * t,
				TGatesPerCycle: math.Pow(10, -1-2*rng.Float64()),
			})
		}
	}
	rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	return apps
}

// planAnswer is the planner's full answer, or its error; the committed
// references pin it.
type planAnswer struct {
	K, Levels      int
	Capacity       int
	OutputError    float64
	BatchLatency   int
	SuccessProb    float64
	Factories      int
	BufferSize     int
	PhysicalQubits int
	RawStates      float64
	Err            string `json:",omitempty"`
}

func answerOf(p *magicstate.Provision, err error) planAnswer {
	if err != nil {
		return planAnswer{Err: err.Error()}
	}
	return planAnswer{
		K: p.K, Levels: p.Levels, Capacity: p.CapacityPerFactory, OutputError: p.OutputError,
		BatchLatency: p.BatchLatency, SuccessProb: p.BatchSuccessProbability, Factories: p.Factories,
		BufferSize: p.BufferSize, PhysicalQubits: p.PhysicalQubits, RawStates: p.RawStates,
	}
}

// checkPlan accepts an answer that matches the reference when there is
// one; without a reference, an error is correct only for the
// unreachable band and a plan must meet its target.
func checkPlan(app magicstate.Application, got planAnswer, ref *planAnswer) error {
	if ref != nil {
		if got != *ref {
			return fmt.Errorf("answer %+v differs from reference %+v", got, *ref)
		}
		return nil
	}
	target := app.ErrorBudget / app.TCount
	if got.Err != "" {
		if target > 1e-14 {
			return fmt.Errorf("reachable target %g failed: %s", target, got.Err)
		}
		return nil
	}
	if got.OutputError > target || got.Factories < 1 || got.PhysicalQubits < 1 {
		return fmt.Errorf("plan %+v does not meet target %g", got, target)
	}
	return nil
}

// provisionPass runs the draw once through PlanProvision, traced or
// not, and checks every answer. A traced pass also times the builds and
// critical paths of every candidate the planner prices.
func provisionPass(w *worker, apps []magicstate.Application, refs []planAnswer) {
	if refs != nil && len(refs) != len(apps) {
		w.res.Attempted++
		w.fail("reference", fmt.Errorf("reference has %d answers, draw has %d", len(refs), len(apps)))
		refs = nil
	}
	all := make([]planAnswer, len(apps))
	t0 := time.Now()
	for i, app := range apps {
		t := time.Now()
		s := w.rec.Begin("plan", "", int64(i), 0)
		p, err := magicstate.PlanProvision(app)
		w.rec.End(s)
		w.res.LatencyMS = append(w.res.LatencyMS, float64(time.Since(t).Nanoseconds())/1e6)
		all[i] = answerOf(p, err)
		w.checkPlanOp(i, app, all[i], refs)
	}
	w.res.Wall = time.Since(t0).Seconds()
	w.res.Ops = len(apps)
	w.res.Digest = digest(all)
	if !w.trace {
		return
	}
	for i, app := range apps {
		w.res.Attempted++
		built, err := traceCandidates(w.rec, int64(i), app)
		if err == nil {
			err = checkCandidates(all[i], built)
		}
		if err != nil {
			w.fail(fmt.Sprintf("candidates %d", i), err)
		}
	}
}

func (w *worker) checkPlanOp(i int, app magicstate.Application, got planAnswer, refs []planAnswer) {
	w.res.Attempted++
	var ref *planAnswer
	if refs != nil {
		ref = &refs[i]
	}
	if err := checkPlan(app, got, ref); err != nil {
		w.fail(fmt.Sprintf("plan %d (T=%g)", i, app.TCount), err)
	}
}

// checkCandidates requires a plan's factory to be one the traced walk
// built. The walk mirrors the planner's enumeration; a plan it did not
// build means the two have drifted apart and the plan.* timings are of
// the wrong candidates.
func checkCandidates(got planAnswer, built map[[2]int]bool) error {
	if got.Err == "" && !built[[2]int{got.K, got.Levels}] {
		return fmt.Errorf("planner chose K=%d L=%d, which the traced walk did not build", got.K, got.Levels)
	}
	return nil
}

// traceCandidates times the factory build and critical-path pricing of
// every candidate the planner builds for app, and returns the (K,
// Levels) pairs it built. It walks the candidates the way internal/plan
// does with the defaults of Requirements.fill at this commit, and must
// follow them when they change: block sizes {1,2,4,6,8}, the shallowest
// depth (up to 4) whose output error meets the target, wider factories
// than 4000 modules pruned, hopeless success probabilities (1e17 runs)
// and zero-size farms at 1.2 headroom skipped to the next depth.
func traceCandidates(rec *Recorder, op int64, app magicstate.Application) (map[[2]int]bool, error) {
	built := map[[2]int]bool{}
	target := app.ErrorBudget / app.TCount
	em := resource.DefaultError()
	cm := resource.DefaultCost()
	for _, k := range []int{1, 2, 4, 6, 8} {
		for levels := 1; levels <= 4; levels++ {
			p := bravyi.Params{K: k, Levels: levels, Reuse: levels >= 2, Barriers: true}
			errs := em.RoundErrors(p)
			if errs[len(errs)-1] > target {
				continue
			}
			if p.TotalModules() > 4000 {
				break
			}
			kind := fmt.Sprintf("K=%d L=%d", k, levels)
			s := rec.Begin("plan.build", kind, op, 0)
			f, err := bravyi.Build(p)
			if err == nil {
				s.count("gates", int64(len(f.Circuit.Gates)))
			}
			rec.End(s)
			if err != nil {
				return nil, err
			}
			built[[2]int{k, levels}] = true
			s = rec.Begin("plan.critpath", kind, op, 0)
			latency := cm.CriticalPath(f.Circuit)
			rec.End(s)
			runs := resource.ExpectedRunsPerSuccess(p, em)
			if runs >= 1e17 {
				continue
			}
			if system.FactoriesFor(system.Config{
				FactoryLatency: latency, BatchSize: p.Capacity(), SuccessProb: 1 / runs,
				DemandRate: app.TGatesPerCycle, Factories: 1, Cycles: 1, BufferSize: 1,
			}, 1.2) == 0 {
				continue
			}
			break
		}
	}
	return built, nil
}
