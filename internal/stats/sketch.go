package stats

import (
	"fmt"
	"math"
	"sort"
)

// This file holds the online summary sketch behind the observability
// layer: a streaming estimate of order statistics that never materializes
// the sample, so a long run can report running quantiles in bounded
// memory. QuantileSketch is a fixed-k merging digest: bounded centroids
// over the whole distribution, any quantile queryable, and sketches built
// on separate workers merge. The server's run-duration summaries use it.
//
// Like everything in this package, the sketch is deterministic: equal
// insertion sequences produce equal states, so it never participates in
// the seed-derivation contract.

// centroid is one weighted point of a QuantileSketch.
type centroid struct {
	mean   float64
	weight float64
}

// QuantileSketch is a fixed-size merging digest over a stream: at most k
// centroids (weighted means, sorted) summarize the full distribution, any
// quantile is queryable by interpolating the cumulative weights, and two
// sketches merge by pooling their centroids — merge(a, b) approximates the
// sketch of the concatenated stream, which is what lets per-worker sketches
// combine into one fleet summary.
//
// Error bound: each compaction bins the pooled points into at most k
// equal-weight groups, so one compaction moves any point's rank by at most
// n/k — a rank error of 1/k. Compactions compose, so after the O(n/k)
// compactions of a long stream (or an arbitrary merge tree) the practical
// rank error stays a small multiple of 1/k; the property tests pin it below
// 3/k on uniform, normal, bimodal, and adversarially sorted inputs, and the
// default k = 128 keeps that under 2.5%. Quantile(0) and Quantile(1) are
// exact (the extremes are tracked separately).
//
// The zero value is not ready to use; construct with NewQuantileSketch.
type QuantileSketch struct {
	k         int
	centroids []centroid // sorted by mean, len <= k after compaction
	buf       []centroid // pending points, compacted when full
	n         float64    // total weight
	min, max  float64
}

// DefaultSketchSize is the k used when NewQuantileSketch is given a
// non-positive size: 128 centroids bound the rank error near 2%, in ~4 KB.
const DefaultSketchSize = 128

// NewQuantileSketch returns an empty digest with at most k centroids
// (DefaultSketchSize when k <= 0; the minimum accepted k is 8).
func NewQuantileSketch(k int) *QuantileSketch {
	if k <= 0 {
		k = DefaultSketchSize
	}
	if k < 8 {
		k = 8
	}
	return &QuantileSketch{k: k}
}

// N returns the total weight added (the observation count when every
// observation had weight 1).
func (s *QuantileSketch) N() float64 { return s.n }

// Min and Max return the exact extremes of the stream.
func (s *QuantileSketch) Min() float64 { return s.min }

// Max returns the largest observation added.
func (s *QuantileSketch) Max() float64 { return s.max }

// Add incorporates one observation.
func (s *QuantileSketch) Add(x float64) { s.AddWeighted(x, 1) }

// AddWeighted incorporates an observation with weight w (w <= 0 is
// ignored). NaN observations are ignored: a sketch is an observability
// surface and must not poison itself on one bad sample.
func (s *QuantileSketch) AddWeighted(x, w float64) {
	if w <= 0 || math.IsNaN(x) || math.IsNaN(w) {
		return
	}
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		s.min = math.Min(s.min, x)
		s.max = math.Max(s.max, x)
	}
	s.n += w
	s.buf = append(s.buf, centroid{mean: x, weight: w})
	if len(s.buf) >= 4*s.k {
		s.compact()
	}
}

// Merge incorporates other into s; other is unchanged. The result
// approximates the sketch of the union stream within the documented error.
func (s *QuantileSketch) Merge(other *QuantileSketch) {
	if other == nil || other.n == 0 {
		return
	}
	if s.n == 0 {
		s.min, s.max = other.min, other.max
	} else {
		s.min = math.Min(s.min, other.min)
		s.max = math.Max(s.max, other.max)
	}
	s.n += other.n
	s.buf = append(s.buf, other.centroids...)
	s.buf = append(s.buf, other.buf...)
	s.compact()
}

// compact pools the pending buffer with the existing centroids and re-bins
// the result into at most k equal-weight centroids. Deterministic: equal
// inputs produce equal states.
func (s *QuantileSketch) compact() {
	if len(s.buf) == 0 {
		return
	}
	pool := append(s.centroids, s.buf...)
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].mean != pool[j].mean {
			return pool[i].mean < pool[j].mean
		}
		return pool[i].weight < pool[j].weight
	})
	var total float64
	for _, c := range pool {
		total += c.weight
	}
	target := total / float64(s.k)
	out := make([]centroid, 0, s.k)
	var accMean, accWeight float64
	flush := func() {
		if accWeight > 0 {
			out = append(out, centroid{mean: accMean / accWeight, weight: accWeight})
			accMean, accWeight = 0, 0
		}
	}
	for _, c := range pool {
		accMean += c.mean * c.weight
		accWeight += c.weight
		if accWeight >= target && len(out) < s.k-1 {
			flush()
		}
	}
	flush()
	s.centroids = out
	s.buf = s.buf[:0]
}

// Quantile returns the estimated q-quantile. It returns an error for an
// empty sketch or q outside [0, 1].
func (s *QuantileSketch) Quantile(q float64) (float64, error) {
	if s.n == 0 {
		return 0, fmt.Errorf("stats: QuantileSketch quantile of an empty sketch")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: QuantileSketch quantile q=%v outside [0, 1]", q)
	}
	s.compact()
	if q == 0 {
		return s.min, nil
	}
	if q == 1 {
		return s.max, nil
	}
	cs := s.centroids
	rank := q * s.n
	// Each centroid sits at the midpoint of its weight span; interpolate
	// between neighbouring midpoints, anchored by the exact extremes.
	var cum float64
	prevMid, prevMean := 0.0, s.min
	for _, c := range cs {
		mid := cum + c.weight/2
		if rank < mid {
			frac := 0.0
			if mid > prevMid {
				frac = (rank - prevMid) / (mid - prevMid)
			}
			return prevMean + frac*(c.mean-prevMean), nil
		}
		cum += c.weight
		prevMid, prevMean = mid, c.mean
	}
	frac := 0.0
	if s.n > prevMid {
		frac = (rank - prevMid) / (s.n - prevMid)
	}
	return prevMean + frac*(s.max-prevMean), nil
}

// Centroids reports the current summary size; tests use it to assert the
// memory bound holds.
func (s *QuantileSketch) Centroids() int { return len(s.centroids) + len(s.buf) }
