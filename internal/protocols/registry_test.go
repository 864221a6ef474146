package protocols

import (
	"strings"
	"testing"

	"popelect/internal/rng"
	"popelect/internal/sim"
)

func TestRegistryShape(t *testing.T) {
	seen := make(map[string]struct{})
	for _, e := range All() {
		if e.Name == "" || e.Display == "" || e.Summary == "" || e.New == nil {
			t.Fatalf("entry %q is missing metadata", e.Name)
		}
		if strings.ToLower(e.Name) != e.Name || strings.ContainsAny(e.Name, " \t") {
			t.Fatalf("entry name %q is not a lowercase token", e.Name)
		}
		if _, dup := seen[e.Name]; dup {
			t.Fatalf("duplicate registry name %q", e.Name)
		}
		seen[e.Name] = struct{}{}
		if _, ok := Lookup(e.Name); !ok {
			t.Fatalf("Lookup(%q) failed", e.Name)
		}
	}
	if _, ok := Lookup("nonsense"); ok {
		t.Fatal("Lookup must reject unknown names")
	}
	for _, name := range []string{"gsu19", "gs18", "lottery", "slow", "clockedmajority", "clockedbroadcast"} {
		if _, ok := Lookup(name); !ok {
			t.Fatalf("expected protocol %q in the registry", name)
		}
	}
	if len(Names()) != len(All()) {
		t.Fatal("Names and All disagree")
	}
}

// smokeN returns the smoke-matrix population size for an entry, honoring
// its practical size cap.
func smokeN(e Entry) int {
	n := 600
	if e.MaxN != 0 && n > e.MaxN {
		n = e.MaxN
	}
	return n
}

// TestSmokeMatrix is the registry-driven both-backend smoke matrix: every
// registered protocol must stabilize at small n on the dense backend and —
// when it carries a state-space enumeration — on the counts backend too,
// with matching election semantics. This is the short-suite canary for
// protocols that regress on one backend only.
func TestSmokeMatrix(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			n := smokeN(e)
			inst, err := e.New(n, Overrides{})
			if err != nil {
				t.Fatal(err)
			}
			backends := []sim.Backend{sim.BackendDense}
			if inst.Enumerable() {
				backends = append(backends, sim.BackendCounts)
			} else if e.Name != "" {
				t.Logf("%s: dense-only (no state-space enumeration)", e.Name)
			}
			for _, b := range backends {
				eng, err := inst.Engine(rng.New(1234), b)
				if err != nil {
					t.Fatalf("%s backend: %v", b, err)
				}
				res := eng.Run()
				if !res.Converged {
					t.Fatalf("%s backend did not stabilize: %+v", b, res)
				}
				if e.Elects && res.Leaders != 1 {
					t.Fatalf("%s backend stabilized with %d leaders", b, res.Leaders)
				}
				if !e.Elects && res.Leaders != 0 && e.Name != "lottery" {
					t.Fatalf("%s backend reports %d leaders for a non-election protocol", b, res.Leaders)
				}
			}
		})
	}
}

// TestStateSpaceClosure asserts, for every enumerable registered protocol
// at several population sizes, that dense runs to stabilization never
// leave the States() enumeration (initial states included) and that the
// enumeration is duplicate-free. This guards the kit's generated
// enumerations — and with them the counts backend's intern table — against
// declaration drift.
func TestStateSpaceClosure(t *testing.T) {
	sizes := []int{64, 400, 1500}
	if testing.Short() {
		sizes = []int{64, 400}
	}
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			for _, n := range sizes {
				if e.MaxN != 0 && n > e.MaxN {
					continue
				}
				inst, err := e.New(n, Overrides{})
				if err != nil {
					t.Fatal(err)
				}
				if !inst.Enumerable() {
					t.Skipf("%s is dense-only", e.Name)
				}
				if err := inst.CheckClosure(uint64(7919 + n)); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
			}
		})
	}
}

// TestOverridesApply: the Γ override must reach every clocked protocol's
// constructor (it shows up in the instance name), and bad overrides must
// fail construction rather than be silently clamped.
func TestOverridesApply(t *testing.T) {
	for _, e := range All() {
		if !e.Clocked {
			continue
		}
		inst, err := e.New(2048, Overrides{Gamma: 44})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if strings.Contains(inst.Name(), "Γ=") && !strings.Contains(inst.Name(), "44") {
			t.Fatalf("%s: Γ=44 override not reflected in %q", e.Name, inst.Name())
		}
		// An invalid Γ must reach the protocol's validation (proving the
		// override is plumbed through) rather than being silently dropped.
		if _, err := e.New(2048, Overrides{Gamma: 7}); err == nil {
			t.Fatalf("%s: odd Γ must be rejected", e.Name)
		}
	}
	if g := (Entry{Clocked: true}).DefaultGamma(1<<20, Overrides{}); g < 36 {
		t.Fatalf("derived Γ(2²⁰) = %d", g)
	}
	if g := (Entry{}).DefaultGamma(1<<20, Overrides{}); g != 0 {
		t.Fatalf("clockless protocols report Γ=%d, want 0", g)
	}
}

// TestComposedProtocolsStabilizeAtMillion is the scale acceptance pin for
// the two compose-kit scenario protocols: both stabilize at n = 10⁶ on the
// counts backend under the auto batch policy (the drift-bounded adaptive
// controller at this size).
func TestComposedProtocolsStabilizeAtMillion(t *testing.T) {
	if testing.Short() {
		t.Skip("two counts runs at n=10⁶")
	}
	const n = 1_000_000
	for _, name := range []string{"clockedmajority", "clockedbroadcast"} {
		inst := MustNew(name, n, Overrides{})
		eng, err := inst.Engine(rng.New(42), sim.BackendCounts)
		if err != nil {
			t.Fatal(err)
		}
		res := eng.Run()
		if !res.Converged {
			t.Fatalf("%s at n=10⁶ on counts/auto: %+v", name, res)
		}
		t.Logf("%s: stabilized after %.3g interactions (parallel time %.1f)",
			inst.Name(), float64(res.Interactions), res.ParallelTime())
	}
}

// TestTrialsAndProbesErased exercises the erased trial/probe path: probes
// fire per trial, and counts-backend trial batches work through the
// erasure.
func TestTrialsAndProbesErased(t *testing.T) {
	inst := MustNew("gs18", 512, Overrides{})
	samples := make([]int, 4)
	rs, err := inst.Trials(sim.TrialConfig{Trials: 4, Seed: 5},
		TrialProbe{Every: 512, Make: func(trial int) Probe {
			return func(step uint64, v Census) { samples[trial]++ }
		}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if !r.Converged || r.Leaders != 1 {
			t.Fatalf("trial %d: %+v", i, r)
		}
		if samples[i] == 0 {
			t.Fatalf("trial %d: probe never fired", i)
		}
	}
	crs, err := inst.Trials(sim.TrialConfig{Trials: 2, Seed: 6, Spec: sim.Spec{Backend: sim.BackendCounts}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range crs {
		if !r.Converged || r.Leaders != 1 {
			t.Fatalf("counts trial %d: %+v", i, r)
		}
	}
}

// TestVisitWords reads a census through the erased word view — the path
// the clock-health instrumentation uses for every clocked protocol.
func TestVisitWords(t *testing.T) {
	for _, name := range []string{"gsu19", "gs18", "lottery", "clockedmajority", "clockedbroadcast"} {
		inst := MustNew(name, 256, Overrides{})
		eng, err := inst.Engine(rng.New(3), sim.BackendDense)
		if err != nil {
			t.Fatal(err)
		}
		eng.RunSteps(2048)
		v, err := inst.CensusOf(eng)
		if err != nil {
			t.Fatal(err)
		}
		var agents int64
		var phases int
		seen := make(map[uint32]bool)
		if err := inst.VisitWords(v, func(word uint32, count int64) {
			agents += count
			if p := word & 0xff; !seen[p] {
				seen[p] = true
				phases++
			}
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if agents != 256 {
			t.Fatalf("%s: census words sum to %d agents, want 256", name, agents)
		}
		if phases == 0 {
			t.Fatalf("%s: no phases observed", name)
		}
	}
}
