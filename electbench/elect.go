package main

import (
	"fmt"
	"sort"
	"time"

	"popelect/internal/protocols"
	"popelect/internal/rng"
	"popelect/internal/sim"
)

// election is the measured outcome of one election.
type election struct {
	Seed     uint64
	NewS     float64 // protocols: Entry.New
	EngineS  float64 // sim: Instance.Engine
	RunS     float64 // sim: Engine.Run
	TotalS   float64 // set-up plus run, as a caller of popelect.Elect waits
	Steps    uint64
	PTime    float64
	Leaders  int
	Conv     bool
	Problems []string
}

// refSeconds is the election's wall time with its Run scaled to the
// reference law's median length: set-up plus Run × RefPTime / PTime. It
// keeps what the system costs per election and drops how long this seed's
// election happened to be, which the law decides.
func (e election) refSeconds(refPTime float64) float64 {
	return e.NewS + e.EngineS + e.RunS*refPTime/e.PTime
}

// electionSeeds derives the run's election seeds from the workload seed:
// the same workload seed gives the same elections on every engine.
func electionSeeds(seed uint64) func(i int) uint64 {
	src := rng.New(seed)
	var seeds []uint64
	return func(i int) uint64 {
		for len(seeds) <= i {
			seeds = append(seeds, src.Uint64())
		}
		return seeds[i]
	}
}

// setup builds the workload's engine through the registry, the sequence
// popelect.run uses: protocols.Lookup(..).New, then Instance.Engine.
func setup(w workload, seed uint64, tr *tracer, parent, id int) (protocols.Instance, sim.Engine, float64, float64, error) {
	entry, ok := protocols.Lookup(w.Protocol)
	if !ok {
		return nil, nil, 0, 0, fmt.Errorf("protocol %q is not registered", w.Protocol)
	}
	sp := tr.begin("protocols.new", parent, id)
	t0 := time.Now()
	inst, err := entry.New(w.N, protocols.Overrides{})
	t1 := time.Now()
	tr.end(sp)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	sp = tr.begin("sim.engine", parent, id)
	eng, err := inst.Engine(rng.New(seed), w.Backend)
	t2 := time.Now()
	tr.end(sp)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	eng.SetBudget(0) // the default budget, sim.DefaultBudget(n)
	return inst, eng, t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), nil
}

// elect runs one election and checks its output.
func elect(w workload, seed uint64, tr *tracer, id int) (election, error) {
	root := tr.begin("bench.election", -1, id)
	defer tr.end(root)
	start := time.Now()
	_, eng, newS, engS, err := setup(w, seed, tr, root, id)
	if err != nil {
		return election{}, err
	}
	sp := tr.begin("sim.run", root, id)
	t0 := time.Now()
	res := eng.Run()
	runS := time.Since(t0).Seconds()
	tr.end(sp)
	e := election{
		Seed: seed, NewS: newS, EngineS: engS, RunS: runS,
		TotalS: time.Since(start).Seconds(),
		Steps:  res.Interactions, PTime: res.ParallelTime(),
		Leaders: res.Leaders, Conv: res.Converged,
	}
	e.Problems = checkElection(w, res)
	return e, nil
}

// checkElection lists what is wrong with one election's output: it must
// converge within the default budget with exactly one leader, and its
// parallel time must not undercut a quarter of the reference law's median
// (no correct simulation of these protocols elects that fast).
func checkElection(w workload, res sim.Result) []string {
	var p []string
	if !res.Converged {
		p = append(p, fmt.Sprintf("no convergence within %d interactions", res.Interactions))
	}
	if res.Leaders != 1 {
		p = append(p, fmt.Sprintf("%d leaders", res.Leaders))
	}
	if w.Backend == sim.BackendDense && res.Leaders == 1 && (res.LeaderID < 0 || res.LeaderID >= w.N) {
		p = append(p, fmt.Sprintf("leader id %d outside [0, %d)", res.LeaderID, w.N))
	}
	if pt := res.ParallelTime(); pt < w.RefPTime/4 {
		p = append(p, fmt.Sprintf("parallel time %.1f below a quarter of the reference %.0f", pt, w.RefPTime))
	}
	return p
}

// band returns the run-level bounds on the median parallel time.
func (w workload) band() (lo, hi float64) {
	return bandLo * w.RefPTime, bandHi * w.RefPTime
}

// checkRun applies the run-level band to the elections' median parallel
// time. When it fails, every election of the run counts as failed: the
// law itself is suspect.
func checkRun(w workload, es []election) (failed int, problems []string) {
	pts := make([]float64, len(es))
	for i, e := range es {
		pts[i] = e.PTime
		if len(e.Problems) > 0 {
			failed++
			for _, s := range e.Problems {
				problems = append(problems, fmt.Sprintf("election %d (seed %d): %s", i, e.Seed, s))
			}
		}
	}
	med := median(pts)
	if lo, hi := w.band(); med < lo || med > hi {
		problems = append(problems, fmt.Sprintf("median parallel time %.1f outside the band [%.0f, %.0f]", med, lo, hi))
		failed = len(es)
	}
	return failed, problems
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// midMean is the mean of the middle half of v (the interquartile mean).
// Unlike the median it moves smoothly with the share of samples taken in
// a slow phase of the machine, and unlike the mean it ignores the odd
// sample stretched by a descheduling.
func midMean(v []float64) float64 {
	if len(v) < 4 {
		return median(v)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}
