package experiments

import (
	"fmt"
	"path/filepath"
	"time"

	"popelect/internal/phaseclock"
	"popelect/internal/protocols"
	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/stats"
)

// The shardscale grid. Shard counts cover the single-census baseline and
// the useful fan-outs of small multicore hosts; the λ axis walks from the
// validated fidelity default down through weak mixing to fully isolated
// sub-populations (λ = 0), which is where the clustered scheduler stops
// being an execution detail and becomes the model.
var (
	shardScaleShards  = []int{1, 2, 4, 8}
	shardScaleLambdas = []float64{sim.DefaultMigrationRate, 0.02, 0.002, 0}
)

// shardScaleBudget bounds each run, in interactions per agent — the same
// compromise as clockspan: healthy runs stabilize well under half of it,
// and a decohered run (weak λ) burns it all, which is exactly the
// reportable outcome.
const shardScaleBudget = 2000

// shardScaleLargeBudget replaces it for the collapsed large-n cells:
// GS18's stabilization time alone exceeds 2000 parallel-time units at
// n ≥ 10⁸ (≈3200 at 10⁸, ≈5300 at 10¹⁰ on the unsharded engine), so the
// n ≥ 10⁹ demonstration needs a budget that clears it with margin.
const shardScaleLargeBudget = 8000

// shardScaleLargeN is the size threshold above which the grid collapses to
// the stabilization demonstration: K = 4 in fidelity mode only, both
// algorithms. A full K × λ sweep at n ≥ 10⁸ would cost days; the scenario
// physics (clock decoherence under weak mixing) is size-stable enough to
// measure in the 10⁶ decade.
const shardScaleLargeN = 100_000_000

// ShardScale measures the sharded counts engine as a K × λ × n grid over
// GS18 and GSU19: each cell runs one protocol on K concurrently-advanced
// sub-censuses with per-agent migration probability λ per epoch, to
// stabilization or the budget, with a phase-span probe watching the merged
// census once per parallel-time unit.
//
//   - Fidelity check: the K = 1 row and the λ = DefaultMigrationRate rows
//     must tell the same story (stabilization, par.time scale) — the
//     KS-level validation is TestShardedFidelityKS.
//   - Scenario measurement: as λ drops, inter-shard mixing stops
//     re-synchronizing the shards' junta-driven clocks and the merged
//     census's bulk span crosses the Γ/2 wrap window (the tearing
//     signature of the clockspan experiment) even while every local clock
//     stays healthy; at λ = 0 the shards are isolated and GS18 holds K
//     leaders forever.
//
// Batch policy: the configured policy, except that the zero-value auto
// default is promoted to the adaptive controller — policy tiering resolves
// per sub-census (n/K agents), and auto would drop 10⁶/8-agent shards into
// exact per-interaction mode, turning grid cells into hour-long runs.
//
// Sizes at or above shardScaleLargeN collapse the grid to the K = 4
// fidelity cell — the n ≥ 10⁹ stabilization demonstration. With
// cfg.SeriesDir set, one CSV row per cell lands in shardscale.csv; the
// recorded bench-results/shardscale.csv comes from this experiment. On a
// single-core host the K goroutines serialize and Minter/s measures law,
// not speedup (the honest caveat of parscale applies unchanged).
func ShardScale(cfg Config) []*Table {
	batch := cfg.Batch
	if batch == (sim.BatchPolicy{}) {
		batch = sim.BatchPolicy{Mode: sim.BatchAdaptive}
	}
	t := &Table{
		ID:    "shardscale",
		Title: "sharded populations: stabilization and clock span across K × λ",
		Columns: []string{"n", "alg", "K", "λ", "converged", "leaders",
			"par.time", "max bulk span", "Γ/2", "Minter/s", "eff.workers"},
	}
	var csvRows [][]string
	for _, n := range cfg.Sizes {
		gamma := gammaFor(cfg, n)
		shardsGrid, lambdaGrid := shardScaleShards, shardScaleLambdas
		if n >= shardScaleLargeN {
			shardsGrid, lambdaGrid = []int{4}, []float64{sim.DefaultMigrationRate}
		}
		for _, alg := range []string{"gs18", "gsu19"} {
			for _, shards := range shardsGrid {
				for _, lambda := range lambdaGrid {
					if shards == 1 && lambda != shardScaleLambdas[0] {
						continue // a single census has no migration axis
					}
					inst := protocols.MustNew(alg, n, protocols.Overrides{Gamma: cfg.Gamma})
					res, bulk, secs, effective := shardScaleRun(cfg, inst, batch, gamma, shards, lambda)
					lam := "—"
					if shards > 1 {
						lam = fmt.Sprintf("%g", lambda)
					}
					mps := float64(res.Interactions) / secs / 1e6
					t.AddRow(d(n), alg, d(shards), lam,
						fmt.Sprintf("%t", res.Converged), d(res.Leaders),
						f1(res.ParallelTime()), d(bulk), d(gamma/2), f1(mps), d(effective))
					csvRows = append(csvRows, []string{d(n), alg, d(shards), lam,
						batch.String(), fmt.Sprintf("%t", res.Converged), d(res.Leaders),
						f1(res.ParallelTime()), fmt.Sprintf("%d", res.Interactions),
						f2(secs), f1(mps), d(bulk), d(gamma / 2), d(effective)})
				}
			}
		}
	}
	t.AddNote("batch policy %s per sub-census; budget %d·n (%d·n at n ≥ %.0e, where GS18's own stabilization time passes 2000 units); bulk span = smallest cyclic window holding 99%% of the merged population (probe once per parallel-time unit)", batch, shardScaleBudget, shardScaleLargeBudget, float64(shardScaleLargeN))
	t.AddNote("bulk span ≥ Γ/2 = tearing: weak migration lets the shards' clocks decohere and the merged census straddles the wrap window; λ=0 isolates the shards entirely (GS18 then holds K leaders forever)")
	t.AddNote("single-core hosts serialize the K goroutines: Minter/s measures the law's cost, not multicore speedup")
	if cfg.SeriesDir != "" {
		path := filepath.Join(cfg.SeriesDir, "shardscale.csv")
		if err := stats.WriteTableCSVFile(path,
			[]string{"n", "alg", "shards", "lambda", "policy", "converged", "leaders",
				"partime", "interactions", "seconds", "minter_per_s",
				"bulk_span", "half_gamma", "eff_workers"}, csvRows); err != nil {
			t.AddNote("CSV write failed: %v", err)
		} else {
			t.AddNote("CSV written to %s", path)
		}
	}
	return []*Table{t}
}

// shardScaleRun executes one grid cell to stabilization or the budget,
// returning the run result, the maximum bulk phase span over the merged
// census, the wall-clock seconds, and the effective worker count.
func shardScaleRun(cfg Config, inst protocols.Instance, batch sim.BatchPolicy, gamma, shards int, lambda float64) (sim.Result, int, float64, int) {
	n := inst.N()
	src := rng.NewStream(cfg.Seed+59, uint64(n)+uint64(16*shards)+uint64(1e6*lambda))
	budget := uint64(shardScaleBudget)
	if n >= shardScaleLargeN {
		budget = shardScaleLargeBudget
	}
	spec := sim.Spec{Backend: sim.BackendCounts, Batch: batch, Workers: cfg.Workers,
		Shards: shards, Migration: lambda, Budget: budget * uint64(n)}
	if lambda == 0 {
		spec.Migration = -1 // isolated shards
	}
	eng := mustEngine(inst.Build(src, spec))
	meter := phaseclock.NewSpanMeter(gamma)
	probe := func(step uint64, v protocols.Census) {
		meter.Begin()
		if err := inst.VisitWords(v, func(word uint32, count int64) {
			meter.Add(uint8(word&0xff), count)
		}); err != nil {
			panic(err)
		}
		meter.End()
	}
	if err := inst.AddProbe(eng, probe, uint64(n)); err != nil {
		panic(err)
	}
	start := time.Now()
	res := eng.Run()
	secs := time.Since(start).Seconds()
	effective := 1
	if wr, ok := eng.(sim.WorkerReporter); ok {
		effective = wr.EffectiveWorkers()
	}
	return res, meter.MaxBulk(), secs, effective
}
