package lottery

import (
	"fmt"
	"testing"

	"popelect/internal/phaseclock"
	"popelect/internal/rng"
	"popelect/internal/sim"
	"popelect/internal/stats"
	"popelect/internal/syntheticcoin"
)

// legacyProtocol is a frozen copy of the pre-kit (hand-rolled) lottery
// implementation, kept verbatim as the differential-testing reference: the
// compose-kit rebuild must reproduce its transition function bit for bit.
// The legacy implementation had no state-space enumeration (it was
// dense-only); the counts-backend capability is new with the kit and is
// pinned by the cross-backend KS test below instead. Do not "fix" or
// modernize this copy — it is the golden baseline.
type legacyProtocol struct {
	params    Params
	gamma     uint8
	maxRank   uint32
	juntaRank uint32
}

const (
	legacyPhaseMask     = 0xff
	legacyRankMask      = 0x3f
	legacyMaxSeenMask   = 0x3f
	legacyFlipMask      = 0x3
	legacyWarmMask      = 0x7
	legacyRoundWarmMask = 0x3
)

const (
	legacyFlipNone uint32 = iota
	legacyFlipHeads
	legacyFlipTails
)

func newLegacy(p Params) *legacyProtocol {
	return &legacyProtocol{
		params:    p,
		gamma:     uint8(p.Gamma),
		maxRank:   uint32(p.MaxRank),
		juntaRank: uint32(p.JuntaRank),
	}
}

func (pr *legacyProtocol) rank(s uint32) uint32 { return s >> rankShift & legacyRankMask }

func (pr *legacyProtocol) Name() string {
	return fmt.Sprintf("lottery(BKKO18,R=%d)", pr.params.MaxRank)
}
func (pr *legacyProtocol) N() int { return pr.params.N }

func (pr *legacyProtocol) Init(int) uint32 {
	return candBit | uint32(pr.params.WarmupReads)<<warmShift
}

func (pr *legacyProtocol) Delta(r, i uint32) (uint32, uint32) {
	oldPhase := uint8(r & legacyPhaseMask)
	var newPhase uint8
	if r&doneBit != 0 && pr.rank(r) >= pr.juntaRank {
		newPhase = phaseclock.JuntaNext(pr.gamma, oldPhase, uint8(i&legacyPhaseMask))
	} else {
		newPhase = phaseclock.FollowerNext(pr.gamma, oldPhase, uint8(i&legacyPhaseMask))
	}
	passed := phaseclock.PassedZero(oldPhase, newPhase)
	half := phaseclock.HalfOf(pr.gamma, oldPhase, newPhase)

	nr := r&^uint32(legacyPhaseMask) | uint32(newPhase)
	nr ^= parityBit

	coin := syntheticcoin.Read(uint8(i >> 22 & 1))

	switch {
	case nr>>warmShift&legacyWarmMask > 0:
		w := nr >> warmShift & legacyWarmMask
		nr = nr&^uint32(legacyWarmMask<<warmShift) | (w-1)<<warmShift
	case nr&doneBit == 0:
		if coin && pr.rank(nr) < pr.maxRank {
			nr += 1 << rankShift
		} else {
			nr |= doneBit
			nr = nr&^uint32(legacyRoundWarmMask<<roundWarmShift) | flipWarmupRounds<<roundWarmShift
			if rk := pr.rank(nr); rk > nr>>maxSeenShift&legacyMaxSeenMask {
				nr = nr&^uint32(legacyMaxSeenMask<<maxSeenShift) | rk<<maxSeenShift
			}
		}
	}

	if ms := i >> maxSeenShift & legacyMaxSeenMask; ms > nr>>maxSeenShift&legacyMaxSeenMask {
		nr = nr&^uint32(legacyMaxSeenMask<<maxSeenShift) | ms<<maxSeenShift
	}

	if nr&candBit != 0 && nr&doneBit != 0 && nr>>maxSeenShift&legacyMaxSeenMask > pr.rank(nr) {
		nr &^= uint32(candBit)
	}

	if passed {
		nr &^= uint32(legacyFlipMask << flipShift)
		nr &^= uint32(headsSeenBit)
		if w := nr >> roundWarmShift & legacyRoundWarmMask; w > 0 {
			nr = nr&^uint32(legacyRoundWarmMask<<roundWarmShift) | (w-1)<<roundWarmShift
		}
	}

	if nr&candBit != 0 && nr&doneBit != 0 && half == phaseclock.Early &&
		nr>>flipShift&legacyFlipMask == legacyFlipNone && nr>>roundWarmShift&legacyRoundWarmMask == 0 {
		if coin {
			nr |= legacyFlipHeads << flipShift
			nr |= headsSeenBit
		} else {
			nr |= legacyFlipTails << flipShift
		}
	}

	if half == phaseclock.Late && nr&headsSeenBit == 0 && i&headsSeenBit != 0 {
		nr |= headsSeenBit
		if nr&candBit != 0 && nr>>flipShift&legacyFlipMask == legacyFlipTails {
			nr &^= uint32(candBit)
		}
	}

	ni := i
	if nr&candBit != 0 && nr&doneBit != 0 && i&candBit != 0 && i&doneBit != 0 {
		switch {
		case pr.rank(i) > pr.rank(nr):
			nr &^= uint32(candBit)
		case pr.rank(i) < pr.rank(nr):
			ni = i &^ uint32(candBit)
		case legacyFlipRank(i>>flipShift&legacyFlipMask) > legacyFlipRank(nr>>flipShift&legacyFlipMask):
			nr &^= uint32(candBit)
		default:
			ni = i &^ uint32(candBit)
		}
	}
	return nr, ni
}

func legacyFlipRank(f uint32) int {
	switch f {
	case legacyFlipHeads:
		return 2
	case legacyFlipNone:
		return 1
	default:
		return 0
	}
}

func (pr *legacyProtocol) NumClasses() int { return numClasses }

func (pr *legacyProtocol) Class(s uint32) uint8 {
	switch {
	case s&doneBit == 0:
		return ClassRanking
	case s&candBit != 0:
		return ClassCandidate
	default:
		return ClassFollower
	}
}

func (pr *legacyProtocol) Leader(s uint32) bool { return s&candBit != 0 && s&doneBit != 0 }

func (pr *legacyProtocol) Stable(counts []int64) bool {
	return counts[ClassCandidate] == 1 && counts[ClassRanking] == 0
}

// TestDeltaMatchesLegacyOnRandomPairs drives both transition functions over
// a large random sample of enumerated state pairs: the recomposed protocol
// must agree with the frozen pre-kit implementation bit for bit.
func TestDeltaMatchesLegacyOnRandomPairs(t *testing.T) {
	p := DefaultParams(2048)
	pr := MustNew(p)
	legacy := newLegacy(p)
	states := pr.States()
	src := rng.New(2025)
	for k := 0; k < 300_000; k++ {
		r := states[src.Uintn(uint64(len(states)))]
		i := states[src.Uintn(uint64(len(states)))]
		gr, gi := pr.Delta(r, i)
		wr, wi := legacy.Delta(r, i)
		if gr != wr || gi != wi {
			t.Fatalf("Delta(%#x, %#x) = (%#x, %#x), legacy (%#x, %#x)", r, i, gr, gi, wr, wi)
		}
	}
}

// TestGoldenTraceMatchesLegacy replays a dense golden trace across the
// refactor: the recomposed protocol and the frozen legacy implementation
// run the same seed, and their census series (class counts + leader count,
// sampled every 250 interactions) must be byte-identical, down to the same
// stabilization step.
func TestGoldenTraceMatchesLegacy(t *testing.T) {
	p := DefaultParams(400)
	newRun := sim.NewRunner[uint32, *Protocol](MustNew(p), rng.New(31))
	legacyRun := sim.NewRunner[uint32, *legacyProtocol](newLegacy(p), rng.New(31))

	type snapshot struct {
		counts  []int64
		leaders int
	}
	var newSnaps, legacySnaps []snapshot
	const every = 250
	newRun.AddObserver(func(uint64, []uint32) {
		newSnaps = append(newSnaps, snapshot{append([]int64(nil), newRun.Counts()...), newRun.Leaders()})
	}, every)
	legacyRun.AddObserver(func(uint64, []uint32) {
		legacySnaps = append(legacySnaps, snapshot{append([]int64(nil), legacyRun.Counts()...), legacyRun.Leaders()})
	}, every)

	resNew := newRun.Run()
	resLegacy := legacyRun.Run()
	if !resNew.Converged || !resLegacy.Converged {
		t.Fatalf("convergence: new %+v, legacy %+v", resNew, resLegacy)
	}
	if resNew.Interactions != resLegacy.Interactions || resNew.LeaderID != resLegacy.LeaderID {
		t.Fatalf("runs diverged: new (%d interactions, leader %d), legacy (%d, %d)",
			resNew.Interactions, resNew.LeaderID, resLegacy.Interactions, resLegacy.LeaderID)
	}
	if len(newSnaps) != len(legacySnaps) {
		t.Fatalf("census series lengths differ: %d vs %d", len(newSnaps), len(legacySnaps))
	}
	for k := range newSnaps {
		if newSnaps[k].leaders != legacySnaps[k].leaders {
			t.Fatalf("sample %d: leader count %d vs legacy %d", k, newSnaps[k].leaders, legacySnaps[k].leaders)
		}
		for c := range newSnaps[k].counts {
			if newSnaps[k].counts[c] != legacySnaps[k].counts[c] {
				t.Fatalf("sample %d class %d: census %d vs legacy %d",
					k, c, newSnaps[k].counts[c], legacySnaps[k].counts[c])
			}
		}
	}
}

// TestCrossBackendConvergenceKS pins the lottery's new counts-backend
// capability at n = 10⁵: the generated (invariant-pruned) enumeration must
// carry whole elections whose stabilization-time distribution is
// KS-consistent with the dense backend's. At this size the counts engine
// runs in its exact per-interaction mode, so the two samples draw from the
// same law and the test is a regression against any enumeration or census
// accounting error. (Delta itself is pinned bit for bit against the frozen
// legacy implementation by the tests above.)
func TestCrossBackendConvergenceKS(t *testing.T) {
	if testing.Short() {
		t.Skip("10×2 lottery trials at n=10⁵ take on the order of a minute on one core")
	}
	const n = 100_000
	const trials = 10
	p := DefaultParams(n)
	factory := func(int) *Protocol { return MustNew(p) }
	denseRes, err := sim.RunTrials[uint32, *Protocol](factory, sim.TrialConfig{
		Trials: trials,
		Seed:   404,
		Spec:   sim.Spec{Backend: sim.BackendDense},
	})
	if err != nil {
		t.Fatal(err)
	}
	countsRes, err := sim.RunTrials[uint32, *Protocol](factory, sim.TrialConfig{
		Trials: trials,
		Seed:   1405,
		Spec:   sim.Spec{Backend: sim.BackendCounts},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sim.AllConverged(denseRes) || !sim.AllConverged(countsRes) {
		t.Fatalf("convergence: dense %d/%d, counts %d/%d",
			sim.ConvergedCount(denseRes), trials, sim.ConvergedCount(countsRes), trials)
	}
	for i, r := range countsRes {
		if r.Leaders != 1 {
			t.Fatalf("counts trial %d ended with %d leaders", i, r.Leaders)
		}
	}
	d := stats.KolmogorovSmirnov(sim.ParallelTimes(denseRes), sim.ParallelTimes(countsRes))
	if crit := stats.KSCritical(trials, trials, 0.01); d > crit {
		t.Fatalf("KS statistic %.4f exceeds the α=0.01 critical value %.4f", d, crit)
	}
}
