package sweep

import (
	"context"
	"sync/atomic"

	"magicstate/internal/core"
	"magicstate/internal/mesh"
	"magicstate/internal/store"
)

// The stage tier: on a final-record miss, instead of handing the whole
// config to core.RunContext, the engine resolves each pipeline stage
// independently through memory → disk → compute, exactly mirroring
// RunContext's serial composition (BuildStage → PlaceStage → SimStage →
// Assemble). A config that shares upstream axes with earlier work — a
// sweep varying only Seed reuses every factory build; one varying only
// Style reuses factory + placement — replays the shared artifacts
// instead of recomputing them. The stage-equivalence harness pins every
// partial-reuse path byte-identical to the monolithic pipeline.

// stageCacheLimit bounds the in-memory stage artifact memo. Stage
// artifacts are heavyweight (a decoded factory holds the whole
// circuit), so the limit sits far below the config memo's default; the
// durable tier backstops evictions.
const stageCacheLimit = 256

// stageMemoKey identifies one stage artifact in the in-memory memo.
// recordPaths joins the key only because the place stage's memoized
// value can carry a force-directed simulation byproduct, whose
// diagnostic payload depends on RecordPaths even though the placement
// itself does not.
type stageMemoKey struct {
	stage       core.Stage
	key         store.Key
	recordPaths bool
}

// stageCounters tracks stage-tier traffic, shared by every engine a
// Derive chain produces (like diskHits). Hits count artifacts replayed
// from the durable tier; computes count stage executions. In-memory
// stage reuse surfaces as neither — same as the config memo.
type stageCounters struct {
	buildHits, buildComputes atomic.Int64
	placeHits, placeComputes atomic.Int64
	simHits, simComputes     atomic.Int64
}

// StageStats snapshots the stage tier's counters. For each stage, Hits
// are artifacts served from the durable tier instead of recomputed and
// Computes are actual stage executions; a fully warm rerun shows zero
// computes everywhere.
type StageStats struct {
	// BuildHits and BuildComputes split the factory-build stage.
	BuildHits, BuildComputes int64
	// PlaceHits and PlaceComputes split the placement stage.
	PlaceHits, PlaceComputes int64
	// SimHits and SimComputes split the simulation stage.
	SimHits, SimComputes int64
}

// StageStats reports stage-tier traffic across this engine and every
// engine sharing its caches via Derive.
func (e *Engine) StageStats() StageStats {
	return StageStats{
		BuildHits:     e.stage.buildHits.Load(),
		BuildComputes: e.stage.buildComputes.Load(),
		PlaceHits:     e.stage.placeHits.Load(),
		PlaceComputes: e.stage.placeComputes.Load(),
		SimHits:       e.stage.simHits.Load(),
		SimComputes:   e.stage.simComputes.Load(),
	}
}

// runStaged computes cfg as the staged pipeline: each stage resolved
// memory → disk → compute, then assembled. It is the compute path
// behind RunOneContext's final-record miss.
func (e *Engine) runStaged(ctx context.Context, cfg core.Config) (*core.Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b, err := e.buildStage(ctx, cfg)
	if err != nil {
		return nil, err
	}
	p, err := e.placeStage(ctx, cfg, b)
	if err != nil {
		return nil, err
	}
	sim, err := e.simStage(ctx, cfg, b, p)
	if err != nil {
		return nil, err
	}
	return core.Assemble(cfg, b, p, sim), nil
}

// buildStage resolves the factory build artifact for cfg.
func (e *Engine) buildStage(ctx context.Context, cfg core.Config) (*core.BuildArtifact, error) {
	k := stageMemoKey{stage: core.StageBuild, key: store.StageKeyOf(core.StageBuild, cfg)}
	v, err := e.stageCache.Do(k, func() (any, error) {
		if e.store != nil {
			if body, ok := e.store.GetStage(core.StageBuild, cfg); ok {
				if b, derr := core.DecodeBuildArtifact(body); derr == nil {
					e.stage.buildHits.Add(1)
					return b, nil
				}
			}
		}
		b, err := core.BuildStage(ctx, cfg)
		if err != nil {
			return nil, err
		}
		e.stage.buildComputes.Add(1)
		if e.store != nil {
			_ = e.store.PutStage(core.StageBuild, cfg, core.EncodeBuildArtifact(b))
		}
		return b, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.BuildArtifact), nil
}

// placeStage resolves the placement artifact for cfg. Stitching skips
// the tier entirely — its build artifact carries the placement — and
// the seeded mappers share artifacts across every config axis their
// stage key excludes.
func (e *Engine) placeStage(ctx context.Context, cfg core.Config, b *core.BuildArtifact) (*core.PlaceArtifact, error) {
	if cfg.Strategy == core.StrategyStitch {
		return core.PlaceStage(ctx, cfg, b)
	}
	k := stageMemoKey{
		stage:       core.StagePlace,
		key:         store.StageKeyOf(core.StagePlace, cfg),
		recordPaths: cfg.RecordPaths,
	}
	v, err := e.stageCache.Do(k, func() (any, error) {
		if e.store != nil {
			if body, ok := e.store.GetStage(core.StagePlace, cfg); ok {
				if p, derr := core.DecodePlaceArtifact(body); derr == nil {
					e.stage.placeHits.Add(1)
					return p, nil
				}
			}
		}
		p, err := core.PlaceStage(ctx, cfg, b)
		if err != nil {
			return nil, err
		}
		e.stage.placeComputes.Add(1)
		if e.store != nil {
			_ = e.store.PutStage(core.StagePlace, cfg, core.EncodePlaceArtifact(p))
			if p.Sim != nil {
				// The force-directed mapper simulated the winner while
				// choosing it; persist that simulation under the sim
				// stage's key so a future placement replay skips the
				// resimulation as well.
				_ = e.store.PutStage(core.StageSim, cfg, core.EncodeSimArtifact(p.Sim))
			}
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.PlaceArtifact), nil
}

// simStage resolves the simulation result for cfg. A placement-stage
// byproduct (fresh force-directed evaluation) short-circuits the tier;
// paths-recording configs always resimulate because the durable
// artifact drops the diagnostics they exist to collect.
func (e *Engine) simStage(ctx context.Context, cfg core.Config, b *core.BuildArtifact, p *core.PlaceArtifact) (*mesh.Result, error) {
	// The post-placement cancellation boundary must hold even when the
	// placement stage already carries the simulation: a caller that hung
	// up mid-anneal gets its cancellation, not a report (and the config
	// memo therefore never caches the abandoned point).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.Sim != nil {
		return p.Sim, nil
	}
	if !store.StageCacheable(core.StageSim, cfg) {
		sim, err := core.SimStage(ctx, cfg, b, p)
		if err != nil {
			return nil, err
		}
		e.stage.simComputes.Add(1)
		return sim, nil
	}
	k := stageMemoKey{stage: core.StageSim, key: store.StageKeyOf(core.StageSim, cfg)}
	v, err := e.stageCache.Do(k, func() (any, error) {
		if e.store != nil {
			if body, ok := e.store.GetStage(core.StageSim, cfg); ok {
				if sim, derr := core.DecodeSimArtifact(body); derr == nil {
					e.stage.simHits.Add(1)
					return sim, nil
				}
			}
		}
		sim, err := core.SimStage(ctx, cfg, b, p)
		if err != nil {
			return nil, err
		}
		e.stage.simComputes.Add(1)
		if e.store != nil {
			_ = e.store.PutStage(core.StageSim, cfg, core.EncodeSimArtifact(sim))
		}
		return sim, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*mesh.Result), nil
}
