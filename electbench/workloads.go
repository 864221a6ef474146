package main

import (
	"fmt"
	"sort"

	"popelect/internal/sim"
)

// workload is one named election configuration the benchmark runs. Every
// workload is serial: one simulation goroutine per election, with the
// engine's default (auto) batch policy.
type workload struct {
	Name     string
	Protocol string      // registry name (protocols.Lookup)
	N        int         // population size
	Backend  sim.Backend // engine backend handed to Instance.Engine

	// RefPTime is the reference median parallel time of the protocol's law
	// at N, measured as noted on each entry (see README.md). A run whose
	// median parallel time leaves [bandLo, bandHi]·RefPTime fails its
	// output check: a sampler that got faster by simulating a different
	// law shows up here.
	RefPTime float64

	// SlabUnits is the RunSteps slab length, in parallel-time units (n
	// interactions each), the traced layer probes time.
	SlabUnits uint64

	Why string
}

// The run-level band on the median parallel time, as shares of RefPTime.
const bandLo, bandHi = 0.6, 1.6

// policy names the batch policy the engine's default resolves to for w,
// by the thresholds the counts engine applies.
func (w workload) policy() string {
	switch {
	case w.Backend == sim.BackendDense:
		return "none (dense)"
	case w.N < sim.ExactMaxN:
		return "auto -> exact"
	case w.N <= sim.AutoAdaptiveMaxN:
		return "auto -> adaptive"
	}
	return "auto -> fixed n/8"
}

// Election-law references. GSU19 at 2^15 (dense and counts-exact simulate
// the same law): median 566 over 40 dense elections, IQR 480–700.
const refGSU19n15 = 566

// workloads lists every workload the harness knows. BENCHMARK.json lists
// all but scale-gsu19-n1g, which is run by hand (see README.md).
var workloads = []workload{
	{
		Name: "dense-gsu19-n32k", Protocol: "gsu19", N: 1 << 15,
		Backend: sim.BackendDense, RefPTime: refGSU19n15, SlabUnits: 64,
		Why: "the library's default popelect.Elect path (Runner + rng.Pair + GSU19 Delta); no counts code runs",
	},
	{
		Name: "exact-gsu19-n32k", Protocol: "gsu19", N: 1 << 15,
		Backend: sim.BackendCounts, RefPTime: refGSU19n15, SlabUnits: 64,
		Why: "same protocol, n and seeds as dense on the counts exact path: Fenwick draw, delta table, census bump, reactive skips",
	},
	{
		// The least n the auto policy batches (sim.ExactMaxN): one election
		// of GS18's tail runs minutes in exact fallback, and a run of five
		// elections must still end within three minutes.
		Name: "batch-gs18-n128k", Protocol: "gs18", N: 1 << 17,
		// Median of 30 elections at 2^17, IQR 539–679.
		Backend: sim.BackendCounts, RefPTime: 588, SlabUnits: 32,
		Why: "GS18 on drift-bounded adaptive batches: hypergeometric chains and small-row alias draws, exact fallback in the endgame",
	},
	{
		Name: "scale-gsu19-n1g", Protocol: "gsu19", N: 1 << 30,
		// Median of 7 elections at 2^30, range 686–2222.
		Backend: sim.BackendCounts, RefPTime: 1168, SlabUnits: 2,
		Why: "engine construction (per-agent Init over 2^30 agents) and huge-argument Normal-branch draws; by hand only",
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	sort.Strings(names)
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}
