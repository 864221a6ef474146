package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"popelect/internal/core"
	"popelect/internal/protocols"
	"popelect/internal/protocols/gs18"
	"popelect/internal/rng"
	"popelect/internal/sim"
)

// sink keeps timed loops from being optimized away.
var sink int64

// protoAccess reaches the typed transition function and state enumeration
// of a registered protocol, which protocols.Instance erases. It builds the
// protocol the way the registry entry does, with no overrides.
type protoAccess struct {
	states  func() int                      // calls States(), as NewCountsEngine does
	deltaNs func(pairs [][2]uint32) float64 // ns per transition call over the pairs
}

func accessFor(name string, n int) (protoAccess, error) {
	switch name {
	case "gsu19":
		p, err := core.New(core.DefaultParams(n))
		if err != nil {
			return protoAccess{}, err
		}
		return access[core.State](p, func(w uint32) core.State { return core.State(w) }), nil
	case "gs18":
		p, err := gs18.New(gs18.DefaultParams(n))
		if err != nil {
			return protoAccess{}, err
		}
		return access[uint32](p, func(w uint32) uint32 { return w }), nil
	}
	return protoAccess{}, fmt.Errorf("no typed access to protocol %q", name)
}

func access[S comparable](p sim.Enumerable[S], conv func(uint32) S) protoAccess {
	return protoAccess{
		states: func() int { return len(p.States()) },
		deltaNs: func(pairs [][2]uint32) float64 {
			// The engines' choice: the compiled memo where the protocol
			// offers one, Delta otherwise.
			delta := p.Delta
			if dc, ok := p.(sim.DeltaCompiler[S]); ok {
				if f := dc.CompileDelta(); f != nil {
					delta = f
				}
			}
			ps := make([][2]S, len(pairs))
			for i, q := range pairs {
				ps[i] = [2]S{conv(q[0]), conv(q[1])}
			}
			pass := func() {
				changed := int64(0)
				for _, q := range ps {
					if a, b := delta(q[0], q[1]); a != q[0] || b != q[1] {
						changed++
					}
				}
				sink += changed
			}
			pass() // fill the memo
			return nsPer(len(ps), pass)
		},
	}
}

// nsPer returns the median over five timings of f, in ns per operation,
// where one call of f performs ops operations. f is repeated within a
// timing until the timing lasts at least 20 ms.
func nsPer(ops int, f func()) float64 {
	reps := 1
	for {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			f()
		}
		if time.Since(t0) >= 20*time.Millisecond || reps >= 1<<20 {
			break
		}
		reps *= 2
	}
	v := make([]float64, 5)
	for i := range v {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			f()
		}
		v[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops*reps)
	}
	return median(v)
}

// censusRow is one occupied state of a census and its count.
type censusRow struct {
	word  uint32
	count int64
}

func censusOf(inst protocols.Instance, eng sim.Engine) ([]censusRow, error) {
	cv, err := inst.CensusOf(eng)
	if err != nil {
		return nil, err
	}
	var rows []censusRow
	err = inst.VisitWords(cv, func(word uint32, count int64) {
		if count > 0 {
			rows = append(rows, censusRow{word, count})
		}
	})
	return rows, err
}

// layerProbe drives one engine to a mid-run and an endgame point and
// measures the per-layer metrics from clones of those states.
type layerProbe struct {
	w      workload
	acc    protoAccess
	seed   uint64
	tr     *tracer
	root   int
	m      metrics
	inst   protocols.Instance
	eng    sim.Engine
	ck     sim.Checkpointable
	slab   uint64
	mid    []byte
	late   []byte
	census []censusRow // at the mid-run point
	batch  int64       // batch length at the mid-run point
}

// probeLayers measures every per-layer metric of workload w into m.
func probeLayers(w workload, seed uint64, tr *tracer, m metrics) error {
	p := &layerProbe{w: w, seed: seed, tr: tr, m: m, slab: w.SlabUnits * uint64(w.N)}
	p.root = tr.begin("bench.layers", -1, -1)
	defer tr.end(p.root)
	for _, step := range []func() error{p.protocols, p.clones, p.delta, p.step, p.slabs, p.rng, p.sharded} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// timed runs f inside a span.
func (p *layerProbe) timed(name string, f func()) float64 {
	sp := p.tr.begin(name, p.root, -1)
	t0 := time.Now()
	f()
	d := time.Since(t0).Seconds()
	p.tr.end(sp)
	return d
}

func (p *layerProbe) protocols() error {
	var err error
	if p.acc, err = accessFor(p.w.Protocol, p.w.N); err != nil {
		return err
	}
	var n int
	v := make([]float64, 3)
	for i := range v {
		v[i] = p.timed("protocols.states", func() { n = p.acc.states() })
	}
	p.m.add("protocols.states_s", median(v), "s")
	p.m.add("protocols.states_n", float64(n), "count")
	return nil
}

// clones advances a fresh engine to 0.4 and then 0.85 of the reference
// election time and snapshots it at both points.
func (p *layerProbe) clones() error {
	inst, eng, _, _, err := setup(p.w, p.seed, p.tr, p.root, -1)
	if err != nil {
		return err
	}
	ck, ok := eng.(sim.Checkpointable)
	if !ok {
		return fmt.Errorf("engine %T cannot snapshot", eng)
	}
	p.inst, p.eng, p.ck = inst, eng, ck
	n := float64(p.w.N)
	p.timed("sim.advance", func() {
		eng.RunSteps(uint64(0.4 * p.w.RefPTime * n))
		if p.mid, err = ck.Snapshot(); err != nil {
			return
		}
		if p.census, err = censusOf(inst, eng); err != nil {
			return
		}
		p.batch = int64(p.w.N / 8) // the fixed policy's default length
		if a, ok := eng.(interface{ AdaptiveBatchLen() uint64 }); ok && a.AdaptiveBatchLen() > 0 {
			p.batch = int64(a.AdaptiveBatchLen())
		}
		if late := uint64(0.85 * p.w.RefPTime * n); eng.Steps() < late {
			eng.RunSteps(late - eng.Steps())
		}
		p.late, err = ck.Snapshot()
	})
	return err
}

func (p *layerProbe) restore(snap []byte) error {
	var err error
	p.timed("sim.restore", func() { err = p.ck.Restore(snap) })
	return err
}

// pairs draws k ordered state pairs in proportion to the mid-run census.
func (p *layerProbe) pairs(k int) ([][2]uint32, error) {
	w := make([]float64, len(p.census))
	for i, r := range p.census {
		w[i] = float64(r.count)
	}
	a, err := rng.NewAlias(w)
	if err != nil {
		return nil, err
	}
	src := rng.New(p.seed ^ 0x5eed)
	out := make([][2]uint32, k)
	for i := range out {
		out[i] = [2]uint32{p.census[a.Sample(src)].word, p.census[a.Sample(src)].word}
	}
	return out, nil
}

func (p *layerProbe) delta() error {
	pairs, err := p.pairs(1 << 16)
	if err != nil {
		return err
	}
	var ns float64
	p.timed("protocols.delta", func() { ns = p.acc.deltaNs(pairs) })
	p.m.add("protocols.delta_ns", ns, "ns")
	return nil
}

func (p *layerProbe) step() error {
	const k = 1 << 18
	v := make([]float64, 3)
	for i := range v {
		if err := p.restore(p.mid); err != nil {
			return err
		}
		v[i] = p.timed("sim.step", func() {
			for j := 0; j < k; j++ {
				p.eng.Step()
			}
		}) * 1e9 / k
	}
	p.m.add("sim.step_ns", median(v), "ns")
	return nil
}

// slabRate restores snap, runs one RunSteps slab with the given worker
// count and returns its throughput in Minteractions/s and the engine's
// effective worker count (1 for engines without a worker pool).
func (p *layerProbe) slabRate(snap []byte, workers int) (float64, int, error) {
	wc, _ := p.eng.(sim.WorkerConfigurable)
	if wc != nil {
		wc.SetWorkers(0) // the configuration the snapshots were taken under
	}
	if err := p.restore(snap); err != nil {
		return 0, 0, err
	}
	if wc != nil {
		wc.SetWorkers(workers)
	}
	before := p.eng.Steps()
	d := p.timed("sim.slab", func() { p.eng.RunSteps(p.slab) })
	eff := 1
	if wr, ok := p.eng.(sim.WorkerReporter); ok {
		eff = wr.EffectiveWorkers()
	}
	return float64(p.eng.Steps()-before) / d / 1e6, eff, nil
}

// slabs times the slab from the mid-run clone at w=1 and w=2 and from the
// endgame clone at w=1, alternating, three times each.
func (p *layerProbe) slabs() error {
	var mid1, mid2, late []float64
	eff := 1
	for i := 0; i < 3; i++ {
		r, _, err := p.slabRate(p.mid, 1)
		if err != nil {
			return err
		}
		mid1 = append(mid1, r)
		r, e, err := p.slabRate(p.mid, 2)
		if err != nil {
			return err
		}
		mid2, eff = append(mid2, r), max(eff, e)
		if r, _, err = p.slabRate(p.late, 1); err != nil {
			return err
		}
		late = append(late, r)
	}
	p.m.add("sim.slab_minter_s.mid", median(mid1), "Minter/s")
	p.m.add("sim.slab_minter_s.late", median(late), "Minter/s")
	p.m.add("sim.parallel.w2_speedup", median(mid2)/median(mid1), "x")
	p.m.add("sim.parallel.effective_workers", float64(eff), "count")
	return nil
}

// hyperNormalMinVar mirrors the counts engine's switch in its batch
// chains (hyperDraw in internal/sim/counts.go): a Hypergeometric draw
// whose variance is below it is made exactly by rng; one at or above it
// is made from a moment-matched Normal.
const hyperNormalMinVar = 25

// hyperMoments returns the mean and variance of Hypergeometric(good, bad,
// sample), computed as the engine computes them.
func hyperMoments(good, bad, sample int64) (mean, v float64) {
	nf := float64(good + bad)
	mean = float64(sample) * float64(good) / nf
	return mean, mean * (float64(bad) / nf) * float64(good+bad-sample) / (nf - 1)
}

// normalDraw is the engine's Normal branch: the rounded moment-matched
// Normal, clamped to the support.
func normalDraw(src *rng.Source, good, bad, sample int64) int64 {
	mean, v := hyperMoments(good, bad, sample)
	k := int64(math.Round(mean + math.Sqrt(v)*src.Normal()))
	return min(max(k, sample-bad, 0), good, sample)
}

// hyperTuples replays one batch's draws the way the counts engine's
// serial batch sampler makes them — a responder chain over the census,
// then an initiator chain for every responder class above 64 — and
// records each nontrivial draw's argument triple by the branch the
// engine takes for it: exact (variance below hyperNormalMinVar) or
// Normal.
func hyperTuples(src *rng.Source, counts []int64, n, l int64) (exact, normal [][3]int64) {
	draw := func(good, bad, sample int64, record bool) int64 {
		switch {
		case good == 0 || sample == 0:
			return 0
		case bad == 0:
			return sample
		}
		t := [3]int64{good, bad, sample}
		if _, v := hyperMoments(good, bad, sample); v >= hyperNormalMinVar {
			if record {
				normal = append(normal, t)
			}
			return normalDraw(src, good, bad, sample)
		}
		if record {
			exact = append(exact, t)
		}
		return src.Hypergeometric(good, bad, sample)
	}
	resp := make([]int64, len(counts))
	rem, need := n, l
	for j, c := range counts {
		if need > 0 {
			resp[j] = draw(c, rem-c, need, true)
			need -= resp[j]
		}
		rem -= c
	}
	pool := make([]int64, len(counts))
	for j, c := range counts {
		pool[j] = c - resp[j]
	}
	poolTotal := n - l
	for _, k := range resp {
		// Rows of at most 64 go through the alias sampler in the engine;
		// draw their initiators unrecorded so the pool stays exact.
		record := k > 64
		remPool, d := poolTotal, k
		for b, pb := range pool {
			if d == 0 {
				break
			}
			if pb == 0 {
				continue
			}
			kb := draw(pb, remPool-pb, d, record)
			pool[b] -= kb
			d -= kb
			remPool -= pb
		}
		poolTotal -= k
	}
	return exact, normal
}

func (p *layerProbe) rng() error {
	src := rng.New(p.seed ^ 0xbe7c)
	n := int64(p.w.N)
	counts := make([]int64, len(p.census))
	weights := make([]float64, len(p.census))
	for i, r := range p.census {
		counts[i], weights[i] = r.count, float64(r.count)
	}
	// The engine's batch chains visit the largest classes first.
	slices.SortFunc(counts, func(a, b int64) int { return cmp.Compare(b, a) })
	const k = 1 << 12
	var err error
	p.timed("rng.pair", func() {
		p.m.add("rng.pair_ns", nsPer(k, func() {
			for i := 0; i < k; i++ {
				a, b := src.Pair(p.w.N)
				sink += int64(a ^ b)
			}
		}), "ns")
	})
	p.timed("rng.alias", func() {
		var a *rng.Alias
		if a, err = rng.NewAlias(weights); err != nil {
			return
		}
		p.m.add("rng.alias_ns", nsPer(k, func() {
			for i := 0; i < k; i++ {
				sink += int64(a.Sample(src))
			}
		}), "ns")
	})
	if err != nil {
		return err
	}
	exact, normal := hyperTuples(src, counts, n, p.batch)
	p.m.add("rng.hyper_draws", float64(len(exact)+len(normal)), "count")
	p.m.add("rng.hyper_normal_frac", float64(len(normal))/float64(len(exact)+len(normal)), "frac")
	// A census can lack one kind of draw; time that branch on one triple
	// of its kind at the batch length.
	if len(exact) == 0 {
		exact = [][3]int64{{1, n - 1, p.batch}}
	}
	if len(normal) == 0 {
		normal = [][3]int64{{n / 2, n - n/2, p.batch}}
	}
	p.timed("rng.hyper", func() {
		p.m.add("rng.hyper_ns.exact", nsPer(len(exact), func() {
			for _, t := range exact {
				sink += src.Hypergeometric(t[0], t[1], t[2])
			}
		}), "ns")
	})
	p.timed("rng.hyper", func() {
		p.m.add("rng.hyper_ns.normal", nsPer(len(normal), func() {
			for _, t := range normal {
				sink += normalDraw(src, t[0], t[1], t[2])
			}
		}), "ns")
	})
	return nil
}

// sharded times the same slab on a K=2 ShardedCountsEngine and on a single
// census (the counts engine), each from a fresh start after one untimed
// warm-up slab.
func (p *layerProbe) sharded() error {
	rate := func(k int) (float64, error) {
		var eng sim.Engine
		var err error
		p.timed("sim.engine", func() {
			if k == 1 {
				eng, err = p.inst.Engine(rng.New(p.seed), sim.BackendCounts)
			} else {
				eng, err = p.inst.ShardedEngine(rng.New(p.seed), k)
			}
		})
		if err != nil {
			return 0, err
		}
		eng.RunSteps(p.slab)
		v := make([]float64, 3)
		for i := range v {
			before := eng.Steps()
			d := p.timed("sim.slab", func() { eng.RunSteps(p.slab) })
			v[i] = float64(eng.Steps()-before) / d / 1e6
		}
		return median(v), nil
	}
	one, err := rate(1)
	if err != nil {
		return err
	}
	two, err := rate(2)
	if err != nil {
		return err
	}
	p.m.add("sim.sharded.k2_speedup", two/one, "x")
	return nil
}
