// Command leaderelect runs one registered protocol and reports the
// outcome: a leader election (the default gsu19) or any scenario protocol
// from the unified registry.
//
// Usage:
//
//	leaderelect -n 100000 -alg gsu19 -seed 42 -v
//	leaderelect -alg list            # print the protocol registry
//	leaderelect -n 100000 -alg clockedmajority
//
// With -v it prints a census timeline: the sub-population sizes (coins,
// inhibitors, active/passive/withdrawn candidates) sampled over the run,
// which makes the three epochs of the paper visible in the terminal.
// -v is dense-only (it reads agent states); -probe-interval records a
// backend-agnostic census timeline (leader count, occupied states) through
// the probe pipeline instead — it works on the counts backend at n = 10⁸
// too — and -series exports it as CSV:
//
//	leaderelect -n 100000000 -alg gs18 -backend counts \
//	    -probe-interval 100000000 -series gs18_1e8.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"popelect"
	"popelect/internal/cli"
	"popelect/internal/core"
	"popelect/internal/protocols"
	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/stats"
)

func main() {
	fl := cli.Bind(flag.CommandLine, cli.Defaults{Seed: 1, Trials: 1, Usage: map[string]string{
		"probe-interval": "record a census sample (leaders, occupied states) every N interactions; works on every backend",
	}})
	var (
		n         = flag.Int("n", 10000, "population size")
		alg       = flag.String("alg", "gsu19", "protocol name from the registry, or 'list' to print it")
		phi       = flag.Int("phi", 0, "coin level cap Φ (0 = default)")
		psi       = flag.Int("psi", 0, "drag range Ψ (0 = default)")
		verbose   = flag.Bool("v", false, "print a census timeline (gsu19 on the dense backend only)")
		series    = flag.String("series", "", "write the recorded census timeline as CSV to this path (requires -probe-interval)")
		ckpt      = flag.String("checkpoint", "", "snapshot the engine to this file (atomically) about every -checkpoint-every interactions; trials > 1 append a .trialT suffix")
		ckptEvery = flag.Uint64("checkpoint-every", 0, "checkpoint cadence in interactions (0 with -checkpoint = n)")
		resume    = flag.Bool("resume", false, "restore from the -checkpoint file before running; a missing file starts fresh, so a killed run can be relaunched with the same command line and finishes byte-identically")
	)
	_, stop := fl.Parse("leaderelect")
	defer stop()

	if *alg == "list" {
		printRegistry(*n)
		return
	}
	entry, ok := protocols.Lookup(*alg)
	if !ok {
		fmt.Fprintf(os.Stderr, "leaderelect: unknown protocol %q (try -alg list)\n", *alg)
		os.Exit(2)
	}
	usageErr := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "leaderelect:", err)
			os.Exit(2)
		}
	}
	if *series != "" && fl.Probe == 0 {
		usageErr(fmt.Errorf("-series requires -probe-interval"))
	}
	if (*resume || *ckptEvery > 0) && *ckpt == "" {
		usageErr(fmt.Errorf("-resume/-checkpoint-every require -checkpoint"))
	}
	if *verbose {
		// The verbose path runs gsu19 once on the dense runner and prints
		// its own timeline: every flag it would silently drop is an error.
		if *alg != "gsu19" {
			usageErr(fmt.Errorf("-v requires -alg gsu19"))
		}
		usageErr(fl.Exclusive("v", "backend", "batch", "batch-eps", "workers", "shards", "migration",
			"trials", "churn", "corrupt", "bias", "probe-interval", "series", "checkpoint"))
	}
	if *verbose {
		if err := runVerbose(*n, fl.Seed, fl.Gamma, *phi, *psi); err != nil {
			fmt.Fprintln(os.Stderr, "leaderelect:", err)
			os.Exit(1)
		}
		return
	}

	loggedWorkers := false
	for t := 0; t < fl.Trials; t++ {
		opts := []popelect.Option{popelect.WithSeed(fl.Seed + uint64(t)), popelect.WithBackend(fl.Backend),
			popelect.WithBatchPolicy(fl.Batch), popelect.WithBatchEps(fl.BatchEps),
			popelect.WithWorkers(fl.Workers), popelect.WithShards(fl.Shards),
			popelect.WithGamma(fl.Gamma), popelect.WithPhi(*phi), popelect.WithPsi(*psi),
			popelect.WithCensusTimeline(fl.Probe), popelect.WithScenario(fl.Churn, fl.Corrupt, fl.Bias)}
		if fl.Migration >= 0 {
			opts = append(opts, popelect.WithMigrationRate(fl.Migration))
		}
		if *ckpt != "" {
			path := *ckpt
			if fl.Trials > 1 {
				path = fmt.Sprintf("%s.trial%d", path, t)
			}
			every := *ckptEvery
			if every == 0 {
				every = uint64(*n)
			}
			opts = append(opts, popelect.WithCheckpoint(path, every))
			if *resume {
				opts = append(opts, popelect.WithResume(path))
			}
		}
		run := popelect.ElectWith
		if !entry.Elects {
			// Scenario protocols stabilize without electing; skip the
			// one-leader verification.
			run = popelect.Stabilize
		}
		res, err := run(popelect.Algorithm(*alg), *n, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "leaderelect:", err)
			os.Exit(1)
		}
		if !loggedWorkers && (fl.Workers > 1 || fl.Shards > 1) {
			// The engine clamps its fan-out to the census width (and short
			// batches run serially), so the realized concurrency can sit
			// well below the request — report it once so capacity numbers
			// aren't misread.
			requested := fl.Workers
			if fl.Shards > 1 {
				requested *= fl.Shards
			}
			fmt.Fprintf(os.Stderr, "leaderelect: effective workers %d (requested %d)\n",
				res.EffectiveWorkers, requested)
			loggedWorkers = true
		}
		if len(res.Timeline) > 0 {
			printTimeline(res.Timeline, *n)
			if *series != "" {
				path := *series
				if fl.Trials > 1 {
					path = fmt.Sprintf("%s.trial%d", path, t)
				}
				if err := writeTimelineCSV(path, res.Timeline); err != nil {
					fmt.Fprintln(os.Stderr, "leaderelect:", err)
					os.Exit(1)
				}
				fmt.Printf("census series written to %s\n", path)
			}
		}
		switch {
		case res.LeaderID >= 0:
			fmt.Printf("trial %d: leader = agent %d after %d interactions (parallel time %.1f)\n",
				t, res.LeaderID, res.Interactions, res.ParallelTime)
		case entry.Elects:
			// The counts backend elects an anonymous leader.
			fmt.Printf("trial %d: unique leader elected after %d interactions (parallel time %.1f)\n",
				t, res.Interactions, res.ParallelTime)
		default:
			fmt.Printf("trial %d: %s stabilized after %d interactions (parallel time %.1f)\n",
				t, *alg, res.Interactions, res.ParallelTime)
		}
	}
}

// printRegistry renders the protocol registry as a table: the single
// source of protocol names, capabilities and defaults (-alg list).
func printRegistry(n int) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "name\tprotocol\tpaper states\tpaper time\telects\tbackends\tstates@n\tΓ(n)")
	for _, e := range protocols.All() {
		size := n
		if e.MaxN != 0 && size > e.MaxN {
			size = e.MaxN
		}
		backends, states := "dense", "—"
		switch inst, err := e.New(size, protocols.Overrides{}); {
		case err != nil:
			backends = "error: " + err.Error()
		case inst.Enumerable():
			backends = "dense+counts"
			states = fmt.Sprintf("%d", inst.StateCount())
		}
		gamma := "—"
		if g := e.DefaultGamma(size, protocols.Overrides{}); g != 0 {
			gamma = fmt.Sprintf("%d", g)
		}
		elects := "no"
		if e.Elects {
			elects = "yes"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			e.Name, e.Display, e.PaperStates, e.PaperTime, elects, backends, states, gamma)
	}
	w.Flush()
	fmt.Printf("\nstates@n: generated enumeration size at n=%d (size-capped protocols at their cap)\n", n)
	fmt.Println("see README 'Protocols' for the composing-a-new-protocol walkthrough")
}

// printTimeline renders a recorded census timeline as a table.
func printTimeline(tl []popelect.CensusPoint, n int) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "par.time\tleaders\toccupied states")
	for _, p := range tl {
		fmt.Fprintf(w, "%.1f\t%d\t%d\n", float64(p.Step)/float64(n), p.Leaders, p.States)
	}
	w.Flush()
}

// writeTimelineCSV exports a timeline through the stats series layer.
func writeTimelineCSV(path string, tl []popelect.CensusPoint) error {
	col := stats.NewCollector(0, "leaders", "occupied_states")
	for _, p := range tl {
		col.Add(p.Step, float64(p.Leaders), float64(p.States))
	}
	return stats.WriteSeriesCSVFile(path, col.Series...)
}

func runVerbose(n int, seed uint64, gamma, phi, psi int) error {
	params := core.DefaultParams(n)
	if gamma != 0 {
		params.Gamma = gamma
	}
	if phi != 0 {
		params.Phi = phi
	}
	if psi != 0 {
		params.Psi = psi
	}
	pr, err := core.New(params)
	if err != nil {
		return err
	}
	fmt.Printf("protocol %s on n=%d agents (seed %d)\n\n", pr.Name(), n, seed)
	r := sim.NewRunner[core.State, *core.Protocol](pr, rng.New(seed))

	var stats core.RuleStats
	r.AddHook(func(step uint64, ri, ii int, oldR, oldI, newR, newI core.State) {
		stats.Record(oldR, oldI, newR, newI)
	})

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "par.time\tuninit\tcoins\tinhib\tdead\tactive\tpassive\twithdrawn\tjunta\tstage")
	sample := uint64(n) * 8
	r.AddObserver(func(step uint64, pop []core.State) {
		c := r.Counts()
		stage := pr.MinLeaderCnt(pop)
		fmt.Fprintf(w, "%.0f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			float64(step)/float64(n),
			c[core.ClassZero]+c[core.ClassX], c[core.ClassC], c[core.ClassI], c[core.ClassD],
			c[core.ClassActive], c[core.ClassPassive], c[core.ClassWithdrawn],
			pr.JuntaSize(pop), stage)
	}, sample)
	res := r.Run()
	w.Flush()
	fmt.Println()
	if !res.Converged {
		return fmt.Errorf("did not stabilize within %d interactions", res.Interactions)
	}
	fmt.Printf("leader = agent %d after %d interactions (parallel time %.1f)\n\n",
		res.LeaderID, res.Interactions, res.ParallelTime())
	fmt.Println("rule firings:")
	if _, err := stats.WriteTo(os.Stdout); err != nil {
		return err
	}
	return nil
}
