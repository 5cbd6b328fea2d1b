// Package trace records population trajectories of the stochastic chains
// and renders them as ASCII charts. It gives the CLIs and examples a way to
// show the logistic growth / competitive-exclusion dynamics the paper
// describes (§1.7) without any plotting dependency.
//
// A Trajectory records (time, counts) points during a run, downsampling
// so memory stays bounded on long trajectories; RenderASCII draws the
// recorded series into a fixed-size ASCII grid. All of it is presentation
// only — nothing in the measurement pipeline (internal/mc,
// internal/consensus, internal/experiment) depends on it, so recording can
// never perturb an estimate.
package trace

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Point is one sample of a two-species trajectory.
type Point struct {
	// Time is the continuous time of the sample (or the step index for
	// jump-chain traces).
	Time float64
	// X0 and X1 are the species counts.
	X0, X1 int
}

// Trajectory is a downsampling recorder for two-species trajectories. The
// zero value is not usable; construct with NewTrajectory.
type Trajectory struct {
	maxPoints int
	points    []Point
	// stride controls downsampling: only every stride-th offered sample
	// is kept. It doubles whenever the buffer fills, so the kept points
	// always span the whole run with bounded memory.
	stride  int
	offered int
}

// NewTrajectory creates a recorder keeping at most maxPoints samples
// (minimum 16).
func NewTrajectory(maxPoints int) *Trajectory {
	if maxPoints < 16 {
		maxPoints = 16
	}
	return &Trajectory{maxPoints: maxPoints, stride: 1}
}

// Add offers a sample to the recorder.
func (tr *Trajectory) Add(t float64, x0, x1 int) {
	if tr.offered%tr.stride == 0 {
		if len(tr.points) == tr.maxPoints {
			// Compact: drop every other point and double the
			// stride.
			kept := tr.points[:0]
			for i := 0; i < len(tr.points); i += 2 {
				kept = append(kept, tr.points[i])
			}
			tr.points = kept
			tr.stride *= 2
		}
		tr.points = append(tr.points, Point{Time: t, X0: x0, X1: x1})
	}
	tr.offered++
}

// Points returns the recorded samples in time order. The returned slice is
// a copy.
func (tr *Trajectory) Points() []Point {
	out := make([]Point, len(tr.points))
	copy(out, tr.points)
	return out
}

// Len returns the number of recorded samples.
func (tr *Trajectory) Len() int { return len(tr.points) }

// RenderASCII draws the two species' counts over time as an ASCII chart of
// the given size. Species 0 is drawn with '0', species 1 with '1', and
// overlapping cells with '*'.
func (tr *Trajectory) RenderASCII(w io.Writer, width, height int) error {
	if width < 10 || height < 4 {
		return fmt.Errorf("trace: chart size %dx%d too small", width, height)
	}
	if len(tr.points) == 0 {
		return fmt.Errorf("trace: empty trajectory")
	}
	minT := tr.points[0].Time
	maxT := tr.points[len(tr.points)-1].Time
	maxY := 1
	for _, p := range tr.points {
		if p.X0 > maxY {
			maxY = p.X0
		}
		if p.X1 > maxY {
			maxY = p.X1
		}
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	col := func(t float64) int {
		if maxT == minT {
			return 0
		}
		c := int(float64(width-1) * (t - minT) / (maxT - minT))
		return clamp(c, 0, width-1)
	}
	row := func(y int) int {
		r := height - 1 - int(math.Round(float64(height-1)*float64(y)/float64(maxY)))
		return clamp(r, 0, height-1)
	}
	put := func(r, c int, ch byte) {
		switch cur := grid[r][c]; {
		case cur == ' ':
			grid[r][c] = ch
		case cur != ch:
			grid[r][c] = '*'
		}
	}
	for _, p := range tr.points {
		c := col(p.Time)
		put(row(p.X0), c, '0')
		put(row(p.X1), c, '1')
	}

	var b strings.Builder
	fmt.Fprintf(&b, "count (max %d); '0' = species 0, '1' = species 1, '*' = both\n", maxY)
	for _, line := range grid {
		b.WriteString("|")
		b.Write(line)
		b.WriteString("\n")
	}
	b.WriteString("+")
	b.WriteString(strings.Repeat("-", width))
	b.WriteString("\n")
	fmt.Fprintf(&b, " t in [%.4g, %.4g]\n", minT, maxT)
	_, err := io.WriteString(w, b.String())
	return err
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
