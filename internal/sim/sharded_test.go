package sim_test

import (
	"os"
	"testing"

	"popelect/internal/protocols/gs18"
	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/stats"
)

// TestShardedProbeExactCadence pins the cross-shard aggregation probe
// contract: a probe attached to the sharded engine fires exactly at
// multiples of its interval — scheduling units are clamped at probe
// boundaries even when the interval is misaligned with the migration
// epoch — and each fire observes the merged census of all shards.
func TestShardedProbeExactCadence(t *testing.T) {
	const n = 1 << 14 // default epoch n/16 = 1024, misaligned with the 1000-interval
	pr := gs18.MustNew(gs18.DefaultParams(n))
	e := sim.NewShardedCountsEngine[uint32](pr, rng.New(17), 4)
	const every = 1000
	var fires []uint64
	e.AddProbe(func(step uint64, v sim.CensusView[uint32]) {
		fires = append(fires, step)
		if v.Step() != step || v.N() != n {
			t.Fatalf("view step %d n %d at fire step %d", v.Step(), v.N(), step)
		}
		var mass int64
		occupied := 0
		v.VisitStates(func(s uint32, c int64) {
			if c <= 0 {
				t.Fatalf("merged census reported state %#x with count %d", s, c)
			}
			mass += c
			occupied++
		})
		if mass != n {
			t.Fatalf("merged census mass %d at step %d, want %d", mass, step, n)
		}
		if occupied != v.Occupied() {
			t.Fatalf("Occupied %d but VisitStates yielded %d states", v.Occupied(), occupied)
		}
		var classMass int64
		for _, c := range v.Classes() {
			classMass += c
		}
		if classMass != n {
			t.Fatalf("class aggregate mass %d at step %d, want %d", classMass, step, n)
		}
	}, every)
	e.RunSteps(10_000)
	if len(fires) != 10 {
		t.Fatalf("probe fired %d times over 10000 steps at interval 1000: %v", len(fires), fires)
	}
	for i, s := range fires {
		if s != uint64(i+1)*every {
			t.Fatalf("fire %d at step %d, want %d", i, s, uint64(i+1)*every)
		}
	}
}

// TestShardedFinalFireNotDuplicatedAtBoundary is the budget-boundary
// contract on the sharded engine: a Run budget that is an exact multiple
// of the probe interval delivers exactly one sample at the final step, and
// a budget off the cadence still gets its final fire.
func TestShardedFinalFireNotDuplicatedAtBoundary(t *testing.T) {
	pr := gs18.MustNew(gs18.DefaultParams(1 << 14))
	for _, tc := range []struct {
		budget uint64
		want   []uint64
	}{
		{6000, []uint64{1000, 2000, 3000, 4000, 5000, 6000}},
		{6500, []uint64{1000, 2000, 3000, 4000, 5000, 6000, 6500}},
	} {
		e := sim.NewShardedCountsEngine[uint32](pr, rng.New(11), 4)
		e.SetBudget(tc.budget)
		var fires []uint64
		e.AddProbe(func(step uint64, v sim.CensusView[uint32]) {
			fires = append(fires, step)
		}, 1000)
		res := e.Run()
		if res.Converged {
			t.Fatalf("GS18 cannot stabilize in %d interactions at n=2^14: %+v", tc.budget, res)
		}
		if len(fires) != len(tc.want) {
			t.Fatalf("budget %d: %d fires %v, want %v", tc.budget, len(fires), fires, tc.want)
		}
		for i, s := range fires {
			if s != tc.want[i] {
				t.Fatalf("budget %d: fire %d at step %d, want %d", tc.budget, i, s, tc.want[i])
			}
		}
	}
}

// TestShardedByteIdentical pins the determinism contract: for a fixed
// (K, λ, epoch, seed) tuple, two runs produce byte-identical census
// traces regardless of how the K goroutines interleave physically — all
// migration randomness comes from the parent stream in fixed shard order
// and shard k always owns the same Split(k) stream. Different K or λ must
// diverge: they are different models, not reorderings.
func TestShardedByteIdentical(t *testing.T) {
	const n = 1 << 16
	const steps = 1 << 18 // 64 default epochs: the migration path runs many times
	pr := gs18.MustNew(gs18.DefaultParams(n))
	trace := func(shards int, lambda float64) string {
		e := sim.NewShardedCountsEngine[uint32](pr, rng.New(17), shards)
		e.Migration = lambda
		return censusTrace(e, pr, 1<<15, steps)
	}
	a := trace(4, sim.DefaultMigrationRate)
	if b := trace(4, sim.DefaultMigrationRate); a != b {
		t.Fatalf("same (K, λ, seed), different traces:\n%s\nvs\n%s", a, b)
	}
	if c := trace(2, sim.DefaultMigrationRate); a == c {
		t.Fatal("K=2 and K=4 produced identical traces — sharding never engaged")
	}
	if d := trace(4, 0.01); a == d {
		t.Fatal("λ=0.01 and λ=0.5 produced identical traces — migration never engaged")
	}
}

// TestShardedSmoke exercises the K-goroutine advance and the migration
// exchange in the short suite so the CI race job (-race -short) covers
// them, and checks the invariants migration must preserve: total mass,
// shard count, and the merged census/class aggregates staying consistent.
func TestShardedSmoke(t *testing.T) {
	const n = 1 << 18
	pr := gs18.MustNew(gs18.DefaultParams(n))
	e := sim.NewShardedCountsEngine[uint32](pr, rng.New(5), 4)
	e.SetWorkers(2) // compose K-way sharding with in-batch fan-out
	e.SetBatchPolicy(sim.BatchPolicy{Mode: sim.BatchAdaptive})
	e.RunSteps(1 << 20)
	if got := e.ShardCount(); got != 4 {
		t.Fatalf("ShardCount %d, want 4", got)
	}
	var total int64
	for _, c := range e.Counts() {
		total += c
	}
	if total != n {
		t.Fatalf("class census lost agents: %v sums to %d, want %d", e.Counts(), total, n)
	}
	v := e.Census()
	var mass int64
	occupied := 0
	v.VisitStates(func(s uint32, c int64) {
		mass += c
		occupied++
		if c <= 0 {
			t.Fatalf("merged census state %#x with count %d", s, c)
		}
	})
	if mass != n || occupied != v.Occupied() {
		t.Fatalf("merged census mass %d (want %d), occupied %d vs %d", mass, n, occupied, v.Occupied())
	}
	if ew := e.EffectiveWorkers(); ew < e.ShardCount() {
		t.Fatalf("EffectiveWorkers %d below shard count %d", ew, e.ShardCount())
	}
	if e.Steps() != 1<<20 {
		t.Fatalf("Steps %d, want %d", e.Steps(), 1<<20)
	}
	// Reset must restore the initial configuration for all shards.
	e.Reset()
	fresh := sim.NewShardedCountsEngine[uint32](pr, rng.New(5), 4)
	if e.Steps() != 0 {
		t.Fatalf("after Reset: steps %d, want 0", e.Steps())
	}
	for cls, c := range e.Counts() {
		if want := fresh.Counts()[cls]; c != want {
			t.Fatalf("after Reset: class %d count %d, want the initial %d", cls, c, want)
		}
	}
}

// TestShardedStabilizes runs the fidelity-mode sharded engine to
// stabilization: with the default (epoch n/16, λ = DefaultMigrationRate)
// mixing, GS18 elects exactly one global leader across shards.
func TestShardedStabilizes(t *testing.T) {
	const n = 1 << 14
	pr := gs18.MustNew(gs18.DefaultParams(n))
	for _, shards := range []int{2, 4} {
		e := sim.NewShardedCountsEngine[uint32](pr, rng.New(uint64(200+shards)), shards)
		res := e.Run()
		if !res.Converged || res.Leaders != 1 {
			t.Fatalf("shards=%d: %+v", shards, res)
		}
	}
}

// TestShardedIsolatedPopulations pins the scenario-mode extreme λ ≤ 0: with
// migration disabled the K sub-populations are fully decoupled, so each
// shard's GS18 instance elects its own leader and the aggregate census
// holds exactly K leaders — the clustered graph's disconnected limit.
func TestShardedIsolatedPopulations(t *testing.T) {
	const n = 1 << 14
	const shards = 4
	pr := gs18.MustNew(gs18.DefaultParams(n))
	e := sim.NewShardedCountsEngine[uint32](pr, rng.New(9), shards)
	e.Migration = 0
	e.RunSteps(1 << 23) // ≫ per-shard stabilization at n/K = 4096
	if got := e.Leaders(); got != shards {
		t.Fatalf("isolated shards hold %d leaders, want exactly %d (one per shard)", got, shards)
	}
}

// TestShardedTrialConfig covers the RunTrials plumbing: Shards ≥ 2 builds
// sharded engines (deterministically per trial), and misconfiguration is
// reported before any worker spawns.
func TestShardedTrialConfig(t *testing.T) {
	const n = 1 << 13
	pr := gs18.MustNew(gs18.DefaultParams(n))
	factory := func(int) *gs18.Protocol { return pr }
	cfg := sim.TrialConfig{
		Trials: 2,
		Seed:   77,
		Spec:   sim.Spec{Backend: sim.BackendCounts, Shards: 2, Budget: 50_000},
	}
	a, err := sim.RunTrials[uint32, *gs18.Protocol](factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.RunTrials[uint32, *gs18.Protocol](factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Interactions != b[i].Interactions || a[i].Leaders != b[i].Leaders {
			t.Fatalf("trial %d not reproducible: %+v vs %+v", i, a[i], b[i])
		}
	}
	if _, err := sim.RunTrials[uint32, *gs18.Protocol](factory, sim.TrialConfig{
		Trials: 1,
		Spec:   sim.Spec{Backend: sim.BackendDense, Shards: 2},
	}); err == nil {
		t.Fatal("Shards with the dense backend must be rejected")
	}
}

// TestShardedFidelityKS is the fidelity-mode acceptance bar: GS18
// stabilization-time distributions under the sharded engine's defaults
// (epoch n/16, λ = DefaultMigrationRate) must be KS-consistent with the
// dense ground-truth scheduler at n = 10⁶ for K ∈ {2, 4}
// (Kolmogorov–Smirnov, α = 0.001) — the same bar the batched and
// parallel-batch paths cleared in earlier PRs. Like those, the full
// elections cost tens of one-core minutes, so the test only runs when
// explicitly requested:
//
//	POPELECT_LONG_TESTS=1 go test -run TestShardedFidelityKS -timeout 120m ./internal/sim/
//
// Last recorded pass (68 min): KS statistics 0.20 / 0.20 for K = 2 / 4 vs
// the α=0.001 critical value 0.6165, every election converging to one
// leader. The always-on coverage of the sharded engine is
// TestShardedSmoke (-race in CI), TestShardedByteIdentical,
// TestShardedStabilizes and TestShardedIsolatedPopulations.
func TestShardedFidelityKS(t *testing.T) {
	if os.Getenv("POPELECT_LONG_TESTS") == "" {
		t.Skip("3×20 GS18 elections at n=10⁶ need tens of one-core minutes; set POPELECT_LONG_TESTS=1 to run")
	}
	const n = 1_000_000
	const trials = 20
	pr := gs18.MustNew(gs18.DefaultParams(n))
	factory := func(int) *gs18.Protocol { return pr }

	denseRes, err := sim.RunTrials[uint32, *gs18.Protocol](factory, sim.TrialConfig{
		Trials: trials,
		Seed:   11,
		Spec:   sim.Spec{Backend: sim.BackendDense},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sim.AllConverged(denseRes) {
		t.Fatalf("dense converged %d/%d", sim.ConvergedCount(denseRes), trials)
	}
	dense := sim.ParallelTimes(denseRes)
	crit := stats.KSCritical(trials, trials, 0.001)

	for _, shards := range []int{2, 4} {
		shardRes, err := sim.RunTrials[uint32, *gs18.Protocol](factory, sim.TrialConfig{
			Trials: trials,
			Seed:   uint64(4000 + shards),
			Spec:   sim.Spec{Backend: sim.BackendCounts, Batch: sim.BatchPolicy{Mode: sim.BatchAdaptive}, Shards: shards},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sim.AllConverged(shardRes) {
			t.Fatalf("shards=%d converged %d/%d", shards, sim.ConvergedCount(shardRes), trials)
		}
		for i, r := range shardRes {
			if r.Leaders != 1 {
				t.Fatalf("shards=%d trial %d ended with %d leaders", shards, i, r.Leaders)
			}
		}
		d := stats.KolmogorovSmirnov(dense, sim.ParallelTimes(shardRes))
		t.Logf("shards=%d: KS statistic %.4f (critical %.4f at α=0.001)", shards, d, crit)
		if d > crit {
			t.Fatalf("shards=%d: KS statistic %.4f vs dense exceeds the α=0.001 critical value %.4f",
				shards, d, crit)
		}
	}
}
