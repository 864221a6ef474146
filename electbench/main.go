// Command electbench is the repository's benchmark: it runs one named
// election workload for a fixed wall time, checks every election's output,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last line of standard output, one JSON object.
//
//	bash electbench/run.sh --workload dense-gsu19-n32k --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and what each layer metric
// is expected to move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) add(name string, v float64, unit string) { m[name] = metric{v, unit} }

// report is the benchmark's result line.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
}

// outcome is everything a run produced: the result line plus what the
// human-readable lines record.
type outcome struct {
	report
	Workload  workload
	Elections []election
	Problems  []string
	Setups    int // set-up samples behind setup_s
	Spans     *tracer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("electbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (an unknown name lists the known ones)")
	seed := fs.Uint64("seed", 1, "workload seed: derives the run's election seeds")
	seconds := fs.Float64("seconds", 30, "run elections for this many wall seconds (whole elections; at least five)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run reporting the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans as JSON lines to this path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		if err == nil {
			err = fmt.Errorf("-trace must be 0 or 1 and -seconds positive")
		}
		fmt.Fprintln(stderr, "electbench:", err)
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	out, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "electbench:", err)
		return 1
	}
	printHuman(stdout, machineFacts(), cfg, out)
	if *traceOut != "" && out.Spans != nil {
		if err := out.Spans.write(*traceOut); err != nil {
			fmt.Fprintln(stderr, "electbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(out.report)
	if err != nil {
		fmt.Fprintln(stderr, "electbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// minElections is the least number of elections a run holds, whatever
// -seconds says: the output check's band is sized for the median
// parallel time of at least this many.
const minElections = 5

// setupBlock is how long a run keeps setting up extra engines after
// each election whose own set-up was shorter, so that setup_s rests on
// many samples spread over the whole run. The box's speed changes in
// phases of a few seconds; samples from one second would all fall in one.
const setupBlock = 200 * time.Millisecond

// setupTimes is one set-up's two timed calls.
type setupTimes struct{ newS, engineS float64 }

func (s setupTimes) total() float64 { return s.newS + s.engineS }

// runWorkload runs elections back to back for cfg.seconds (at least
// minElections) with a block of extra set-ups after each, checks the
// outputs and computes the metrics.
func runWorkload(w workload, cfg config) (outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	out := outcome{Workload: w, Spans: tr, report: report{Metrics: metrics{}}}
	seeds := electionSeeds(cfg.seed)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var setups []setupTimes
	var runS, steps, loopS float64
	for i := 0; i < minElections || time.Since(start) < budget; i++ {
		// Collect the previous election's engine outside the timings, so
		// every election starts from the same heap.
		runtime.GC()
		e, err := elect(w, seeds(i), tr, i)
		if err != nil {
			return out, fmt.Errorf("election %d: %w", i, err)
		}
		out.Elections = append(out.Elections, e)
		setups = append(setups, setupTimes{e.NewS, e.EngineS})
		runS += e.RunS
		steps += float64(e.Steps)
		loopS += e.TotalS
		for t0 := time.Now(); e.NewS+e.EngineS < setupBlock.Seconds() && time.Since(t0) < setupBlock; {
			runtime.GC()
			sp := tr.begin("bench.setup", -1, i)
			_, _, newS, engS, err := setup(w, e.Seed, tr, sp, i)
			tr.end(sp)
			if err != nil {
				return out, err
			}
			setups = append(setups, setupTimes{newS, engS})
		}
	}
	electionSpans := 4 * len(out.Elections) // bench.election, protocols.new, sim.engine, sim.run
	out.Setups = len(setups)
	out.Attempted = len(out.Elections)
	out.Failed, out.Problems = checkRun(w, out.Elections)
	out.Correct = out.Failed == 0

	minter := steps / runS / 1e6
	m := out.Metrics
	setupMean := func(f func(s setupTimes) float64) float64 {
		v := make([]float64, len(setups))
		for i, s := range setups {
			v[i] = f(s)
		}
		return midMean(v)
	}
	runMedian := func(f func(e election) float64) float64 {
		v := make([]float64, len(out.Elections))
		for i, e := range out.Elections {
			v[i] = f(e)
		}
		return median(v)
	}
	if !cfg.trace {
		m.add("elect_s_ref", runMedian(func(e election) float64 { return e.refSeconds(w.RefPTime) }), "s")
		m.add("minter_s", minter, "Minter/s")
		m.add("setup_s", setupMean(setupTimes.total), "s")
		rss, err := peakRSSMB()
		if err != nil {
			return out, fmt.Errorf("peak RSS: %w", err)
		}
		m.add("peak_rss_mb", rss, "MB")
		return out, nil
	}
	m.add("protocols.new_s", setupMean(func(s setupTimes) float64 { return s.newS }), "s")
	m.add("sim.engine_s", setupMean(func(s setupTimes) float64 { return s.engineS }), "s")
	m.add("sim.run_s", runMedian(func(e election) float64 { return e.RunS }), "s")
	m.add("trace.minter_s", minter, "Minter/s")
	if err := probeLayers(w, cfg.seed, tr, m); err != nil {
		return out, fmt.Errorf("layer probes: %w", err)
	}
	for layer, s := range tr.selfSeconds() {
		m.add(layer+".self_s", s, "s")
	}
	cost := spanCostNs()
	m.add("trace.span_ns", cost, "ns")
	// The elections' share of their wall time spent recording spans.
	m.add("trace.overhead_frac", cost*float64(electionSpans)/1e9/loopS, "frac")
	return out, nil
}

// peakRSSMB is the peak resident set size of this process's memory image,
// VmHWM in /proc/self/status. getrusage's max RSS would not do: Linux
// carries it across exec, so it would include whatever process exec'd
// this one (run.sh's shell, or the fork of the caller that started it).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// facts describes the machine and build a result was measured on.
type facts struct {
	CPU        string
	NProc      int
	GOMAXPROCS int
	Go         string
	Commit     string
}

func machineFacts() facts {
	f := facts{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if c, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(c)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPU = strings.TrimSpace(v)
				break
			}
		}
		c.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				f.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			f.Commit += "+dirty"
		}
	}
	return f
}

func printHuman(wr io.Writer, f facts, cfg config, out outcome) {
	w := out.Workload
	fmt.Fprintf(wr, "machine cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n", f.CPU, f.NProc, f.GOMAXPROCS, f.Go, f.Commit)
	fmt.Fprintf(wr, "workload %s protocol=%s n=%d engine=%s policy=%q seed=%d trace=%v\n",
		w.Name, w.Protocol, w.N, w.Backend, w.policy(), cfg.seed, cfg.trace)
	fmt.Fprintf(wr, "why %s\n", w.Why)
	seeds := make([]string, len(out.Elections))
	pts := make([]float64, len(out.Elections))
	for i, e := range out.Elections {
		seeds[i] = fmt.Sprint(e.Seed)
		pts[i] = e.PTime
	}
	fmt.Fprintf(wr, "seeds %s\n", strings.Join(seeds, " "))
	lo, hi := w.band()
	fmt.Fprintf(wr, "check median parallel time %.1f of %d elections, band [%.0f, %.0f] around reference %.0f\n",
		median(pts), len(pts), lo, hi, w.RefPTime)
	for _, p := range out.Problems {
		fmt.Fprintf(wr, "problem %s\n", p)
	}
	totals := make([]float64, len(out.Elections))
	for i, e := range out.Elections {
		totals[i] = e.TotalS
	}
	fmt.Fprintf(wr, "metric elect_s_p50 = %g s (raw wall time per election, median of %d; not gated, see README.md)\n",
		median(totals), len(totals))
	fmt.Fprintf(wr, "metric fail_frac = %g (%d of %d elections)\n",
		float64(out.Failed)/float64(out.Attempted), out.Failed, out.Attempted)
	fmt.Fprintf(wr, "samples elections=%d setups=%d\n", len(out.Elections), out.Setups)
	for _, name := range slices.Sorted(maps.Keys(out.Metrics)) {
		m := out.Metrics[name]
		fmt.Fprintf(wr, "metric %s = %g %s\n", name, m.Value, m.Unit)
	}
}
