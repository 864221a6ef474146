package sim

// fenwick is a binary indexed tree over int64 counts with prefix-sum
// selection, used by the exact per-interaction mode to draw a state
// proportionally to its count in O(log states).
type fenwick struct {
	tree []int64 // 1-indexed; tree[i] covers the range (i − lowbit(i), i]
	cap  int     // power of two ≥ slot count
}

func (f *fenwick) init(n int) {
	c := 1
	for c < n {
		c <<= 1
	}
	f.cap = c
	if cap(f.tree) >= c+1 {
		f.tree = f.tree[:c+1]
		clear(f.tree)
	} else {
		f.tree = make([]int64, c+1)
	}
}

func (f *fenwick) add(i int32, d int64) {
	for j := int(i) + 1; j <= f.cap; j += j & -j {
		f.tree[j] += d
	}
}

// find returns the smallest slot index whose prefix sum exceeds u; with u
// uniform on [0, total) this selects a slot proportionally to its count.
func (f *fenwick) find(u uint64) int32 {
	pos := 0
	rem := int64(u)
	for bit := f.cap; bit > 0; bit >>= 1 {
		if next := pos + bit; next <= f.cap && f.tree[next] <= rem {
			pos = next
			rem -= f.tree[next]
		}
	}
	return int32(pos)
}

// find2 returns (find(u1), find(u2)) for u1, u2 < total, the two draws of
// one exact-mode interaction. Each descent is a chain of dependent loads;
// walking both in one loop lets the CPU overlap the two chains, and taking
// each step with an arithmetic mask instead of a branch keeps a
// mispredicted comparison from flushing the other chain's loads.
//
// The walk starts one level below the root: tree[cap] holds the total, so
// for u < total the root step is never taken, and every probed index
// pos+bit then stays below cap.
func (f *fenwick) find2(u1, u2 uint64) (int32, int32) {
	t := f.tree
	p1, p2 := 0, 0
	r1, r2 := int64(u1), int64(u2)
	for bit := f.cap >> 1; bit > 0; bit >>= 1 {
		v1, v2 := t[p1+bit], t[p2+bit]
		// m is all ones when v ≤ r (take the step), zero otherwise.
		m1, m2 := ^((r1 - v1) >> 63), ^((r2 - v2) >> 63)
		p1 += bit & int(m1)
		p2 += bit & int(m2)
		r1 -= v1 & m1
		r2 -= v2 & m2
	}
	return int32(p1), int32(p2)
}
