// Package cli binds the command-line flags the three commands share — the
// engine run spec (backend, batch policy, engine workers, sharding,
// scenario perturbations), seed, trials, Γ override, probe cadence and
// profiling — so each flag is declared, parsed and validated once.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"popelect/internal/phaseclock"
	"popelect/internal/sim"
)

// Flags holds the shared flags' values after flag.Parse.
type Flags struct {
	fs *flag.FlagSet

	Seed      uint64
	Trials    int
	Gamma     int
	Probe     uint64
	Backend   string
	Batch     string
	BatchEps  float64
	Workers   int
	Shards    int
	Migration float64 // flag convention: -1 = fidelity default, 0 = isolated
	Churn     string
	Corrupt   string
	Bias      string

	cpuProfile string
	memProfile string
}

// Defaults are the per-command defaults of the shared flags.
type Defaults struct {
	Seed   uint64
	Trials int

	// Usage replaces the generic help text of the named flags, for
	// commands where a shared flag's zero value means something specific.
	Usage map[string]string
}

// Bind declares the shared flags on fs.
func Bind(fs *flag.FlagSet, d Defaults) *Flags {
	f := &Flags{fs: fs}
	usage := func(name, generic string) string {
		if u, ok := d.Usage[name]; ok {
			return u
		}
		return generic
	}
	fs.Uint64Var(&f.Seed, "seed", d.Seed, usage("seed", "base PRNG seed"))
	fs.IntVar(&f.Trials, "trials", d.Trials, usage("trials", "number of independent runs"))
	fs.IntVar(&f.Gamma, "gamma", 0, usage("gamma", "phase-clock resolution Γ override for every clock-carrying protocol (0 = derived Γ(n): next even ≥ 2·log₂ n, floor 36)"))
	fs.Uint64Var(&f.Probe, "probe-interval", 0, usage("probe-interval", "census-probe cadence in interactions"))
	fs.StringVar(&f.Backend, "backend", "dense", usage("backend", "simulation backend: dense, counts or auto (counts scales to n=10⁸–10⁹ but reports no leader agent id)"))
	fs.StringVar(&f.Batch, "batch", "auto", usage("batch", "counts-backend batch policy: auto, adaptive, exact, or a fixed batch length"))
	fs.Float64Var(&f.BatchEps, "batch-eps", 0, usage("batch-eps", "adaptive batch controller drift bound ε (0 = default)"))
	fs.IntVar(&f.Workers, "workers", runtime.GOMAXPROCS(0), usage("workers", "worker bound: sampling shards inside each counts engine, and concurrent trials where a command runs them in parallel (fixed value ⇒ byte-identical runs per seed on any machine; 1 = serial)"))
	fs.IntVar(&f.Shards, "shards", 0, usage("shards", "partition the population into K sub-censuses advanced concurrently with epoch-boundary migration (≤1 = single census; requires an enumerable protocol)"))
	fs.Float64Var(&f.Migration, "migration", -1, usage("migration", "sharded per-agent per-epoch migration probability λ (-1 = fidelity default, 0 = isolated shards; requires -shards ≥ 2)"))
	fs.StringVar(&f.Churn, "churn", "", usage("churn", "population churn spec: RATE or LEAVE:JOIN per-interaction rates, optional @UNTIL step (e.g. 2.5e-3:8.3e-4@3e6)"))
	fs.StringVar(&f.Corrupt, "corrupt", "", usage("corrupt", "state corruption spec: K@STEP scrambles K uniformly chosen agents once at STEP, or RATE[@UNTIL] scrambles continuously"))
	fs.StringVar(&f.Bias, "bias", "", usage("bias", "scheduler bias spec: CLASS=WEIGHT,... non-uniform interaction weights per census class (dense/counts only)"))
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	return f
}

// Parse parses the command line into the flags bound on the flag set,
// validates the shared ones and starts the profiles. It returns the run
// spec and the function that stops the profiles, to be deferred. Usage
// errors are printed with the prog prefix and exit with status 2, like the
// flag package's own.
func (f *Flags) Parse(prog string) (sim.Spec, func()) {
	err := f.fs.Parse(os.Args[1:])
	var spec sim.Spec
	if err == nil {
		spec, err = f.Spec()
	}
	var stop func()
	if err == nil {
		stop, err = f.startProfiles(prog)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		os.Exit(2)
	}
	return spec, stop
}

// Spec validates the shared flags and returns the run spec they select.
// It leaves Budget, ShardEpoch and TrackStates at their defaults: no
// command exposes them.
func (f *Flags) Spec() (sim.Spec, error) {
	backend, err := sim.ParseBackend(f.Backend)
	if err != nil {
		return sim.Spec{}, err
	}
	batch, err := sim.ParseBatchPolicy(f.Batch)
	if err != nil {
		return sim.Spec{}, err
	}
	batch.Eps = f.BatchEps
	if f.Migration >= 0 && f.Shards < 2 {
		return sim.Spec{}, fmt.Errorf("-migration requires -shards ≥ 2")
	}
	if f.Gamma != 0 {
		if err := phaseclock.Validate(f.Gamma); err != nil {
			return sim.Spec{}, err
		}
	}
	perturb, err := sim.ParsePerturbations(f.Churn, f.Corrupt, f.Bias)
	if err != nil {
		return sim.Spec{}, err
	}
	spec := sim.Spec{Backend: backend, Batch: batch, Workers: f.Workers, Shards: f.Shards, Perturb: perturb}
	switch {
	case f.Migration > 0:
		spec.Migration = f.Migration
	case f.Migration == 0:
		spec.Migration = -1 // isolated shards
	}
	return spec, nil
}

// Exclusive reports an error when flag name and any of others were both
// given on the command line with a non-default value.
func (f *Flags) Exclusive(name string, others ...string) error {
	set := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) {
		if fl.Value.String() != fl.DefValue {
			set[fl.Name] = true
		}
	})
	if !set[name] {
		return nil
	}
	var bad []string
	for _, o := range others {
		if set[o] {
			bad = append(bad, "-"+o)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("-%s cannot be combined with %s", name, strings.Join(bad, ", "))
	}
	return nil
}

// startProfiles starts the -cpuprofile CPU profile and returns the
// function that stops it and writes the -memprofile heap profile. prog
// prefixes the errors the deferred writer reports on stderr.
func (f *Flags) startProfiles(prog string) (stop func(), err error) {
	stopCPU := func() {}
	if f.cpuProfile != "" {
		out, err := os.Create(f.cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(out); err != nil {
			out.Close()
			return nil, err
		}
		stopCPU = pprof.StopCPUProfile
	}
	return func() {
		if f.memProfile != "" {
			if err := writeHeapProfile(f.memProfile); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
			}
		}
		stopCPU()
	}, nil
}

func writeHeapProfile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	runtime.GC() // materialize up-to-date allocation statistics
	return pprof.WriteHeapProfile(out)
}
