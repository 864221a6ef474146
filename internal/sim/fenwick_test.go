package sim

import (
	"math"
	"testing"

	"popelect/internal/rng"
)

// unitSlots expands counts into the slot of each unit item: the u-th
// (0-based) unit lives in the slot whose prefix range covers u. It is the
// brute-force oracle for find.
func unitSlots(counts []int64) []int32 {
	var out []int32
	for i, c := range counts {
		for ; c > 0; c-- {
			out = append(out, int32(i))
		}
	}
	return out
}

func buildFenwick(counts []int64) *fenwick {
	f := new(fenwick)
	f.init(len(counts))
	for i, c := range counts {
		f.add(int32(i), c)
	}
	return f
}

// fenwickCase is one tree for checkFenwick: slot counts, the capacity
// init must round them to, and a slot decremented to zero after the first
// pass (−1 for none).
type fenwickCase struct {
	name    string
	counts  []int64
	wantCap int
	zero    int
}

// checkFenwick walks the selection tree over its exact support: every u in
// [0, total) must map to the slot whose prefix range covers it, both
// boundaries of every slot and u = total−1 included, before and after a
// slot is decremented to zero (its range collapses onto the next occupied
// slot). find2 must agree with find on every pair of units.
func checkFenwick(t *testing.T, cases []fenwickCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			counts := append([]int64(nil), tc.counts...)
			f := buildFenwick(counts)
			if f.cap != tc.wantCap {
				t.Fatalf("cap = %d, want %d for %d slots", f.cap, tc.wantCap, len(counts))
			}
			check := func(stage string) {
				want := unitSlots(counts)
				for u, w := range want {
					if got := f.find(uint64(u)); got != w {
						t.Fatalf("%s: find(%d) = %d, want %d", stage, u, got, w)
					}
					for u2, w2 := range want {
						if a, b := f.find2(uint64(u), uint64(u2)); a != w || b != w2 {
							t.Fatalf("%s: find2(%d, %d) = (%d, %d), want (%d, %d)", stage, u, u2, a, b, w, w2)
						}
					}
				}
			}
			check("built")
			if tc.zero >= 0 {
				f.add(int32(tc.zero), -counts[tc.zero])
				counts[tc.zero] = 0
				check("after zeroing")
			}
		})
	}
}

// TestFenwick checks a small tree whose first slot is removed, so the
// lowest units move onto the next occupied slot.
func TestFenwick(t *testing.T) {
	checkFenwick(t, []fenwickCase{
		{"five slots", []int64{3, 0, 2, 5, 1}, 8, 0},
	})
}

// TestFenwickFind checks the capacity edges: a non-power-of-two slot
// count rounded up, an exact power of two, and a single slot.
func TestFenwickFind(t *testing.T) {
	checkFenwick(t, []fenwickCase{
		{"nine slots round to 16", []int64{3, 0, 7, 1, 0, 0, 5, 2, 9}, 16, 2},
		{"power of two", []int64{0, 0, 0, 10}, 4, -1},
		{"single slot", []int64{5}, 1, -1},
	})
}

// TestFenwickFind2 is find2's property test: on seeded random trees —
// a single slot, exact powers of two, odd sizes, skewed and flat counts,
// and slots zeroed after use — find2(u1, u2) must equal
// (find(u1), find(u2)) for sampled u1, u2 < total and at both ends of the
// support.
func TestFenwickFind2(t *testing.T) {
	src := rng.New(14)
	for _, slots := range []int{1, 2, 3, 9, 64, 100, 1024, 1360, 2048} {
		for trial := 0; trial < 8; trial++ {
			counts := make([]int64, slots)
			var f fenwick
			f.init(slots)
			for i := range counts {
				if src.Uintn(4) == 0 {
					continue // unoccupied slot
				}
				c := int64(1 + src.Uintn(1<<uint(src.Uintn(31))))
				counts[i] = c
				f.add(int32(i), c)
			}
			// Zero some slots after use, as the census does when a
			// state empties.
			for i := range counts {
				if counts[i] > 0 && src.Uintn(3) == 0 {
					f.add(int32(i), -counts[i])
					counts[i] = 0
				}
			}
			var total int64
			for _, c := range counts {
				total += c
			}
			if total == 0 {
				counts[slots-1] = 7
				f.add(int32(slots-1), 7)
				total = 7
			}
			us := []uint64{0, uint64(total - 1)}
			for k := 0; k < 200; k++ {
				us = append(us, src.Uintn(uint64(total)))
			}
			for i, u1 := range us {
				u2 := us[(i*7+1)%len(us)]
				a, b := f.find2(u1, u2)
				if wa, wb := f.find(u1), f.find(u2); a != wa || b != wb {
					t.Fatalf("%d slots, trial %d: find2(%d, %d) = (%d, %d), want (%d, %d)",
						slots, trial, u1, u2, a, b, wa, wb)
				}
			}
		}
	}
}

func TestFenwickFind2Allocates(t *testing.T) {
	f := censusFenwick()
	if n := testing.AllocsPerRun(100, func() { f.find2(1, 2) }); n != 0 {
		t.Fatalf("find2 allocates %v times per call", n)
	}
}

// censusFenwick builds a tree shaped like the exact-mode census of a GSU19
// election at n = 2¹⁵ mid-run: 1 360 state ids discovered, 80 of them
// occupied at scattered ids, with Zipf-skewed counts (rank k holds
// ∝ k^−1.5; the largest state holds about 42% of the agents) summing to n.
func censusFenwick() *fenwick {
	const slots, occupied, n = 1360, 80, 1 << 15
	ids := rng.New(2019).Perm(slots)[:occupied]
	var wsum float64
	for k := 1; k <= occupied; k++ {
		wsum += math.Pow(float64(k), -1.5)
	}
	counts := make([]int64, slots)
	rest := int64(n)
	for k, id := range ids {
		counts[id] = int64(n * math.Pow(float64(k+1), -1.5) / wsum)
		rest -= counts[id]
	}
	counts[ids[0]] += rest
	return buildFenwick(counts)
}

// censusUnits returns 4096 pre-drawn distinct unit pairs over the census,
// so the draw benchmarks time the descents and not the generator.
func censusUnits() [][2]uint64 {
	src := rng.New(7)
	us := make([][2]uint64, 4096)
	for i := range us {
		u1 := src.Uintn(1 << 15)
		u2 := src.Uintn(1 << 15)
		for u2 == u1 {
			u2 = src.Uintn(1 << 15)
		}
		us[i] = [2]uint64{u1, u2}
	}
	return us
}

// fenwickSink keeps the draw benchmarks' results live. They loop on b.N
// rather than b.Loop, which keeps calls in its body from being inlined;
// the engine's call sites inline find, and the benchmarks time both draws
// as the engine runs them.
var fenwickSink int32

// BenchmarkFenwickFind is the exact-mode census draw as two single
// descents, one per role. ns/op is ns per pair of draws (one
// interaction).
func BenchmarkFenwickFind(b *testing.B) {
	f, us := censusFenwick(), censusUnits()
	var s int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := us[i&(len(us)-1)]
		s += f.find(u[0]) + f.find(u[1])
	}
	fenwickSink = s
}

// BenchmarkFenwickFindPair is the same pair of draws through find2, the
// interleaved descent exact mode uses.
func BenchmarkFenwickFindPair(b *testing.B) {
	f, us := censusFenwick(), censusUnits()
	var s int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := us[i&(len(us)-1)]
		a, c := f.find2(u[0], u[1])
		s += a + c
	}
	fenwickSink = s
}
