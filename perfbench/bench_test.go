package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"magicstate"
	"magicstate/internal/core"
	"magicstate/internal/mesh"
)

// cheapGrid is a few quick route_styles points, and their indices in the
// full grid: enough to exercise every stage function without the cost
// of a full grid.
func cheapGrid(t *testing.T, seed int64) ([]core.Config, []int) {
	t.Helper()
	cfgs, err := routeStylesGrid(seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []core.Config
	var idx []int
	for i, c := range cfgs {
		if c.K == 4 && (c.MeshMode == mesh.RouteXY || c.Defects != "") {
			out = append(out, c)
			idx = append(idx, i)
		}
	}
	return out, idx
}

func TestMutatedReferenceIsDetected(t *testing.T) {
	cfgs, idx := cheapGrid(t, 1)
	g := runGrid(cfgs, 2)
	var refs []pointStats
	if ok, err := loadRef("route_styles", 1, &refs); err != nil || !ok {
		t.Fatalf("route_styles seed 1 reference: found=%v err=%v", ok, err)
	}
	for i, c := range cfgs {
		if g.errs[i] != nil {
			t.Fatal(g.errs[i])
		}
		ref := refs[idx[i]]
		if err := checkPoint(c, g.reps[i], &ref); err != nil {
			t.Fatalf("point %d fails its committed reference: %v", i, err)
		}
		mutated := ref
		mutated.Stalls++
		if checkPoint(c, g.reps[i], &mutated) == nil {
			t.Fatalf("point %d: a mutated reference went unnoticed", i)
		}
	}
	var answers []planAnswer
	if ok, err := loadRef("provision", 1, &answers); err != nil || !ok {
		t.Fatalf("provision seed 1 reference: found=%v err=%v", ok, err)
	}
	apps := planDraw(1)
	mutated := answers[0]
	mutated.Factories++
	if checkPlan(apps[0], answers[0], &mutated) == nil {
		t.Fatal("a mutated planner reference went unnoticed")
	}
}

func TestFlippedStatisticIsDetected(t *testing.T) {
	cfg := core.Config{K: 4, Levels: 2, Reuse: true, Strategy: core.StrategyLinear, Seed: 1}
	rep, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := statsOf(rep)
	if err := checkPoint(cfg, rep, &ref); err != nil {
		t.Fatal(err)
	}
	flipped := *rep
	flipped.Latency++
	if checkPoint(cfg, &flipped, &ref) == nil {
		t.Fatal("a flipped latency passed the reference check")
	}
	if checkPoint(cfg, &flipped, nil) == nil {
		t.Fatal("a flipped latency passed the volume invariant")
	}
	flipped = *rep
	flipped.Latency = rep.CriticalLatency - 1
	flipped.Volume = float64(flipped.Latency) * float64(flipped.Area)
	if checkPoint(cfg, &flipped, nil) == nil {
		t.Fatal("a braiding latency below the critical path passed")
	}
	flipped.Config.Style = mesh.StyleTeleportation
	cfg.Style = mesh.StyleTeleportation
	if err := checkPoint(cfg, &flipped, nil); err != nil {
		t.Fatalf("teleportation may beat the braid critical path: %v", err)
	}
	if err := checkPaths(core.Config{K: 4, Levels: 2, Reuse: true, Strategy: core.StrategyLinear, Seed: 1}, rep); err != nil {
		t.Fatal(err)
	}
}

func TestSameSeedSameCounts(t *testing.T) {
	counts := func() map[string]float64 {
		rec := newRecorder()
		cfgs, _ := cheapGrid(t, 3)
		g := runGridTraced(rec, cfgs, 2)
		for _, err := range g.errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		m := layerMetrics(rec.spans, 2, nil)
		return map[string]float64{"sim.cycles": m["sim.cycles"], "sim.stalls": m["sim.stalls"],
			"build.gates": m["build.gates"], "build.calls": m["build.calls"], "place.calls": m["place.calls"]}
	}
	a, b := counts(), counts()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("counts drift between runs of one seed: %v vs %v", a, b)
	}
	if a["sim.cycles"] == 0 || a["build.gates"] == 0 {
		t.Fatalf("counts not recorded: %v", a)
	}
	if !reflect.DeepEqual(planDraw(5), planDraw(5)) {
		t.Fatal("planDraw is not deterministic")
	}
}

func TestCandidateWalkFollowsThePlanner(t *testing.T) {
	// A cheap target: every block size meets it with one level.
	app := magicstate.Application{TCount: 1e3, ErrorBudget: 0.1, TGatesPerCycle: 0.01}
	p, err := magicstate.PlanProvision(app)
	if err != nil {
		t.Fatal(err)
	}
	got := answerOf(p, nil)
	built, err := traceCandidates(nil, 0, app)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCandidates(got, built); err != nil {
		t.Fatal(err)
	}
	drifted := got
	drifted.K = 3
	if checkCandidates(drifted, built) == nil {
		t.Fatal("a plan outside the traced walk went unnoticed")
	}
}

func TestSeedsChangeInputs(t *testing.T) {
	if reflect.DeepEqual(table1Grid(1), table1Grid(2)) {
		t.Error("table1_full inputs ignore the seed")
	}
	a, _ := routeStylesGrid(1)
	b, _ := routeStylesGrid(2)
	if reflect.DeepEqual(a, b) || a[len(a)-1].Defects == b[len(b)-1].Defects {
		t.Error("route_styles inputs (defect maps) ignore the seed")
	}
	if reflect.DeepEqual(planDraw(1), planDraw(2)) {
		t.Error("provision draw ignores the seed")
	}
	r1, r2 := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))
	var p1, p2 []servePoint
	for i := int64(0); i < 8; i++ {
		p1 = append(p1, storedPoint(r1, i), newPoint(r1, i))
		p2 = append(p2, storedPoint(r2, i), newPoint(r2, i))
	}
	if reflect.DeepEqual(p1, p2) {
		t.Error("serve_mixed points ignore the seed")
	}
}

func TestPlanDrawSpansTheRange(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, app := range planDraw(seed) {
			if app.TCount < 1e8 || app.TCount > 1e14 || app.ErrorBudget <= 0 || app.ErrorBudget >= 1 {
				t.Fatalf("seed %d: application out of range: %+v", seed, app)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "point", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "build", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "place", Start: 30, End: 60}, // overlaps build by 10
		{ID: 4, Parent: 3, Name: "sim", Start: 35, End: 45},
	}
	got := selfTimes(spans)
	want := []float64{50e-9, 30e-9, 20e-9, 10e-9}
	for i := range want {
		if d := got[i] - want[i]; d > 1e-15 || d < -1e-15 {
			t.Fatalf("self times %v, want %v", got, want)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the metrics the program prints
// in step with the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type entry struct{ Name, Unit string }
	var decl struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
}
