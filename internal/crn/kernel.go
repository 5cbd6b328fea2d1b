package crn

// This file holds the direct method's event-kernel machinery, which
// tau-leaping's exact fallback reuses: the cached-propensity channel
// selector.
//
// The naive direct method spends its time in two places per event:
// recomputing every propensity (O(R) falling-factorial products) and
// summing and scanning the propensity array. The incremental kernel removes
// the first cost — after firing r only the reactions the network's
// dependency graph lists for r are recomputed — and keeps the second: every
// pick resums the cached array in index order, which reproduces the naive
// method's floating-point total bit for bit, and scans it with
// selectChannel, so every network gets the naive method's exact trace. The
// sum and scan stay O(R) per event; no network the repository builds has
// more than 32 reactions.

// selectChannel picks the reaction whose cached-propensity CDF interval
// contains u (callers draw u uniform in [0, total)). When u lands at or
// beyond the accumulated total — floating-point slack — it falls back to
// the last channel with positive propensity, never a zero-propensity one.
// It returns −1 only if every channel is zero.
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
