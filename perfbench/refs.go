package main

import (
	"embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"magicstate"
	"magicstate/internal/core"
)

// refFiles holds the committed references: every simulated statistic
// (table1_full, route_styles) or planner answer (provision) for a few
// seeds, generated by "perfbench refs" at the commit that added them.
//
//go:embed refs
var refFiles embed.FS

func refName(workload string, seed int64) string {
	return fmt.Sprintf("%s-%d.json", workload, seed)
}

// loadRef decodes the reference for (workload, seed) into v; found is
// false when none is committed.
func loadRef(workload string, seed int64, v any) (found bool, err error) {
	b, err := refFiles.ReadFile("refs/" + refName(workload, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return false, fmt.Errorf("reference %s: %w", refName(workload, seed), err)
	}
	return true, nil
}

// refsMain regenerates references: perfbench refs -seeds 1,2 -out perfbench/refs
func refsMain(args []string) int {
	fset := flag.NewFlagSet("refs", flag.ContinueOnError)
	seeds := fset.String("seeds", "1,2", "comma-separated seeds")
	out := fset.String("out", "perfbench/refs", "output directory")
	workers := fset.Int("workers", runtime.NumCPU(), "sweep-engine workers")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	for _, f := range strings.Split(*seeds, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, "refs:", err)
			return 2
		}
		if err := writeRefs(*out, seed, *workers); err != nil {
			fmt.Fprintln(os.Stderr, "refs:", err)
			return 1
		}
	}
	return 0
}

func writeRefs(dir string, seed int64, workers int) error {
	rs, err := routeStylesGrid(seed)
	if err != nil {
		return err
	}
	for name, cfgs := range map[string][]core.Config{"table1_full": table1Grid(seed), "route_styles": rs} {
		g := runGrid(cfgs, workers)
		var st []pointStats
		for i, rep := range g.reps {
			if g.errs[i] != nil {
				return fmt.Errorf("%s point %d: %w", name, i, g.errs[i])
			}
			st = append(st, statsOf(rep))
		}
		if err := writeJSON(filepath.Join(dir, refName(name, seed)), st); err != nil {
			return err
		}
	}
	var answers []planAnswer
	for _, app := range planDraw(seed) {
		answers = append(answers, answerOf(magicstate.PlanProvision(app)))
	}
	return writeJSON(filepath.Join(dir, refName("provision", seed)), answers)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
