// Command paperbench regenerates the paper's evaluation artifacts — Table 1
// and Figures 1–3 plus the quantitative lemmas and theorems — by
// simulation, printing one text table per artifact.
//
// Usage:
//
//	paperbench                         # run everything at default scale
//	paperbench -exp table1,fig3        # selected experiments
//	paperbench -sizes 1024,4096 -trials 5 -seed 1
//	paperbench -list                   # list experiment ids
//	paperbench -exp scalefigures -backend counts -sizes 100000000 \
//	    -series-dir series             # census trajectories at n=10⁸ (CSV)
//
// The default scale matches EXPERIMENTS.md. Everything runs single-machine;
// trials parallelize over cores.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"popelect/internal/cli"
	"popelect/internal/experiments"
	"popelect/internal/store"
)

func main() {
	fl := cli.Bind(flag.CommandLine, cli.Defaults{Usage: map[string]string{
		"seed":           "base seed (default: preset)",
		"trials":         "trials per measurement point (default: preset)",
		"probe-interval": "census-probe cadence for trajectory experiments, in interactions (0 = per-experiment default)",
		"shards":         "run engine-building experiments (scale) on K concurrently-advanced sub-censuses with epoch migration (≤1 = single census; shardscale sweeps its own K grid)",
	}})
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		sizes    = flag.String("sizes", "", "comma-separated population sizes (default: experiment preset)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		smoke    = flag.Bool("smoke", false, "tiny configuration for a quick look")
		sdir     = flag.String("series-dir", "", "directory where recording experiments (scalefigures, biassweep, clockspan, parscale, shardscale, resilience) write CSV files (empty = no files)")
		reps     = flag.Int("reps", 1, "timing repetitions per cell in throughput experiments (parscale): mean ± sd over reps")
		storeDir = flag.String("store", "", "content-addressed result store directory: trial batches already computed under the same key are reused instead of re-simulated")
	)
	spec, stop := fl.Parse("paperbench")
	defer stop()

	if *list {
		for _, e := range experiments.All() {
			fmt.Println(e.ID)
		}
		return
	}

	cfg := experiments.DefaultConfig()
	if *smoke {
		cfg = experiments.SmokeConfig()
	}
	if *sizes != "" {
		cfg.Sizes = nil
		for _, s := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 2 {
				fmt.Fprintf(os.Stderr, "paperbench: bad size %q\n", s)
				os.Exit(2)
			}
			cfg.Sizes = append(cfg.Sizes, n)
		}
	}
	if fl.Trials > 0 {
		cfg.Trials = fl.Trials
	}
	if fl.Seed != 0 {
		cfg.Seed = fl.Seed
	}
	cfg.Spec = spec
	cfg.Pool = fl.Workers
	cfg.Gamma = fl.Gamma
	cfg.ProbeInterval = fl.Probe
	cfg.SeriesDir = *sdir
	cfg.Reps = *reps
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(2)
		}
		cfg.Store = st
	}
	var ids []string
	if *exp == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	for _, id := range ids {
		run, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "paperbench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		tables := run(cfg)
		if err := experiments.RenderAll(os.Stdout, tables); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		fmt.Printf("(%s finished in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if cfg.Store != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %s\n", cfg.Store)
	}
}
