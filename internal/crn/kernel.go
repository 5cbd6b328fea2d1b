package crn

// This file holds the direct method's event-kernel machinery (which
// tau-leaping's exact fallback reuses): the cached-propensity channel
// selector and the Fenwick (binary-indexed) propensity tree used by large
// networks.
//
// The direct method spends its time in two places per event: recomputing
// every propensity (O(R) falling-factorial products) and linear-scanning
// the propensity array. The incremental kernel removes the first cost for
// every network — after firing r only the reactions the network's
// dependency graph lists for r are recomputed — and the second for large
// networks, which sample through an O(log R) prefix tree instead of the
// linear CDF scan.

const (
	// denseTotalThreshold is the largest reaction count for which the
	// direct method resums the cached propensity array on every pick.
	// Resumming in index order reproduces the naive direct method's
	// floating-point total bit for bit, so small networks — every network
	// in this repository — keep byte-identical traces while still skipping
	// the propensity recomputation. Larger networks switch to a running
	// total with drift-controlled resummation and Fenwick-tree sampling,
	// which is distributionally (not bitwise) equivalent.
	denseTotalThreshold = 32

	// resumInterval bounds the floating-point drift of the sparse running
	// total: after this many incremental updates the total and the tree
	// are rebuilt from the cached propensities.
	resumInterval = 4096
)

// selectChannel picks the reaction whose cached-propensity CDF interval
// contains u (callers draw u uniform in [0, total)). When u lands at or
// beyond the accumulated total — floating-point slack, or a slightly
// drifted running total — it falls back to the last channel with positive
// propensity, never a zero-propensity one. It returns −1 only if every
// channel is zero.
func selectChannel(props []float64, u float64) int {
	acc := 0.0
	last := -1
	for r, p := range props {
		if p <= 0 {
			continue
		}
		acc += p
		last = r
		if u < acc {
			return r
		}
	}
	return last
}

// propTree is a Fenwick (binary-indexed) tree over the propensity array:
// point update and prefix-sum sampling in O(log R). Zero value is unusable;
// call rebuild first.
type propTree struct {
	// sums is 1-indexed: sums[i] covers the segment ending at i.
	sums []float64
	// mask is the highest power of two <= len(props), precomputed for the
	// top-down descent in sample.
	mask int
}

// rebuild re-derives the tree from props, reusing storage.
func (t *propTree) rebuild(props []float64) {
	n := len(props)
	if cap(t.sums) < n+1 {
		t.sums = make([]float64, n+1)
	}
	t.sums = t.sums[:n+1]
	for i := range t.sums {
		t.sums[i] = 0
	}
	for i, p := range props {
		t.sums[i+1] += p
		if j := (i + 1) + ((i + 1) & -(i + 1)); j <= n {
			t.sums[j] += t.sums[i+1]
		}
	}
	t.mask = 1
	for t.mask<<1 <= n {
		t.mask <<= 1
	}
}

// add applies a point delta to channel r (0-based).
func (t *propTree) add(r int, delta float64) {
	for i := r + 1; i < len(t.sums); i += i & -i {
		t.sums[i] += delta
	}
}

// sample returns the smallest channel whose prefix sum exceeds u, skipping
// zero-propensity channels on floating-point slack exactly like
// selectChannel: out-of-range descents fall back to the last positive
// channel in props. It returns −1 only if every channel is zero.
func (t *propTree) sample(props []float64, u float64) int {
	idx := 0
	n := len(props)
	for k := t.mask; k > 0; k >>= 1 {
		next := idx + k
		if next <= n && t.sums[next] <= u {
			u -= t.sums[next]
			idx = next
		}
	}
	// idx counts the channels strictly before the selected one.
	if idx < n && props[idx] > 0 {
		return idx
	}
	// Slack fallback: u landed within rounding of (or beyond) the true
	// total, or on a zero-width interval. Walk back to the last positive
	// channel.
	for r := min(idx, n-1); r >= 0; r-- {
		if props[r] > 0 {
			return r
		}
	}
	for r := min(idx, n-1) + 1; r < n; r++ {
		if props[r] > 0 {
			return r
		}
	}
	return -1
}
