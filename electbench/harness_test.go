package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"popelect/internal/sim"
)

// spec is the part of BENCHMARK.json the harness must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// toyRef is each protocol's median parallel time at toy size, n=2^10,
// over 60 elections on each backend (GSU19 496–503, GS18 159–190).
var toyRef = map[string]float64{"gsu19": 500, "gs18": 175}

// toy shrinks a workload to a population the test can afford.
func toy(w workload) workload {
	w.N = 1 << 10
	w.RefPTime = toyRef[w.Protocol]
	w.SlabUnits = 4
	return w
}

func TestBenchmarkJSONWorkloadsAreKnown(t *testing.T) {
	for _, w := range loadSpec(t).Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// TestEveryMetricPrints runs every workload at toy size, untraced and
// traced, and checks that each election passes its own checks and that
// each BENCHMARK.json metric comes out with its unit, and nothing else
// does. The run-level band is not asserted here: at toy size GS18's
// parallel time is heavy-tailed, and the band tests below cover it.
func TestEveryMetricPrints(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() {
				continue
			}
			out, err := runWorkload(toy(w), config{seed: 3, seconds: 1e-9, trace: traced})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if out.Attempted != minElections {
				t.Errorf("%s trace=%v: %d elections, want %d", w.Name, traced, out.Attempted, minElections)
			}
			for i, e := range out.Elections {
				if len(e.Problems) > 0 {
					t.Errorf("%s trace=%v: election %d: %v", w.Name, traced, i, e.Problems)
				}
			}
			want := map[string]string{}
			list := s.EndToEnd
			if traced {
				list = s.PerLayer
			}
			for _, m := range list {
				want[m.Name] = m.Unit
			}
			for name, unit := range want {
				m, ok := out.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w.Name, traced, name, m.Unit, unit)
				}
			}
			for name := range out.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.Name, traced, name)
				}
			}
		}
	}
}

func TestTwoLeadersFailTheCheck(t *testing.T) {
	w := toy(workloads[0])
	good := sim.Result{Converged: true, Interactions: 300 << 10, N: w.N, Leaders: 1, LeaderID: 7}
	bad := good
	bad.Leaders, bad.LeaderID = 2, -1
	if p := checkElection(w, good); len(p) != 0 {
		t.Fatalf("good election flagged: %v", p)
	}
	es := []election{{PTime: 300}, {PTime: 300, Problems: checkElection(w, bad)}, {PTime: 300}}
	failed, problems := checkRun(w, es)
	if failed != 1 || len(problems) != 1 || !strings.Contains(problems[0], "2 leaders") {
		t.Fatalf("failed=%d problems=%v, want one two-leader failure", failed, problems)
	}
	unconv := good
	unconv.Converged = false
	if p := checkElection(w, unconv); len(p) != 1 {
		t.Fatalf("unconverged election: problems %v", p)
	}
}

// TestParallelTimeOutsideTheBandFails runs a real toy election against a
// reference law it cannot match: the run must come out incorrect with
// every election counted as failed.
func TestParallelTimeOutsideTheBandFails(t *testing.T) {
	w := toy(workloads[0])
	w.RefPTime = 1e6
	out, err := runWorkload(w, config{seed: 3, seconds: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Failed != out.Attempted {
		t.Fatalf("correct=%v failed=%d attempted=%d, want an incorrect run with every election failed",
			out.Correct, out.Failed, out.Attempted)
	}
	var buf bytes.Buffer
	printHuman(&buf, machineFacts(), config{seed: 3}, out)
	if !strings.Contains(buf.String(), "outside the band") || !strings.Contains(buf.String(), "metric fail_frac = 1 ") {
		t.Fatalf("report does not show the band failure:\n%s", buf.String())
	}
}

// TestBandHoldsTheMedian: the band judges the run's median, so two long
// elections of five pass and five long ones fail.
func TestBandHoldsTheMedian(t *testing.T) {
	w := workloads[0]
	es := make([]election, minElections)
	for i := range es {
		es[i] = election{PTime: w.RefPTime}
	}
	es[0].PTime, es[1].PTime = 2.5*w.RefPTime, 3*w.RefPTime
	if failed, p := checkRun(w, es); failed != 0 {
		t.Fatalf("two long elections of %d failed the band: %v", len(es), p)
	}
	for i := range es {
		es[i].PTime = 1.7 * w.RefPTime
	}
	if failed, _ := checkRun(w, es); failed != len(es) {
		t.Fatalf("%d long elections: %d failed, want all", len(es), failed)
	}
}

func TestElectionSeedsAreDeterministic(t *testing.T) {
	a, b, c := electionSeeds(5), electionSeeds(5), electionSeeds(6)
	if a(3) != b(3) || a(0) != b(0) || a(0) == c(0) {
		t.Fatal("election seeds must depend on the workload seed alone")
	}
}

func TestSelfSecondsSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "bench.election", Start: 0, End: 10e9, Parent: -1},
		{Name: "sim.run", Start: 1e9, End: 7e9, Parent: 0},
		{Name: "protocols.new", Start: 7e9, End: 8e9, Parent: 0},
	}}
	got := tr.selfSeconds()
	if got["bench"] != 3 || got["sim"] != 6 || got["protocols"] != 1 {
		t.Fatalf("self seconds %v", got)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "dense-gsu19-n32k", "--trace", "2"},
	} {
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
	if out.Len() != 0 {
		t.Fatalf("a rejected invocation printed a result: %q", out.String())
	}
}

func TestMidMeanDropsTheOuterQuarters(t *testing.T) {
	if got := midMean([]float64{10, 1, 2, 3, 4, 5, 6, 1000}); got != 4.5 {
		t.Fatalf("midMean = %v, want 4.5", got)
	}
}
