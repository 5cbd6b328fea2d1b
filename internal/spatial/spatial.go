// Package spatial implements the explicitly spatial extension of the
// paper's stochastic Lotka–Volterra model that §1.6/§1.7 name as future
// work: a metapopulation of demes (patches), each running the well-mixed
// two-species LV dynamics locally, coupled by per-capita migration to
// neighboring demes.
//
// Formally, the state is a vector of per-deme configurations
// (x₀ᵈ, x₁ᵈ) for demes d = 1..L. Within each deme every reaction channel of
// the well-mixed model fires with its usual mass-action propensity computed
// from the deme-local counts; in addition every individual migrates at
// per-capita rate m to a uniformly chosen neighboring deme. Setting L = 1
// (or m → ∞ on a complete topology) recovers the paper's well-mixed chain —
// a property the test suite checks.
package spatial

import (
	"fmt"

	"lvmajority/internal/lv"
	"lvmajority/internal/rng"
)

// Topology selects the deme adjacency structure.
type Topology int

const (
	// Cycle arranges demes on a ring; each deme has two neighbors.
	Cycle Topology = iota + 1
	// Complete connects every pair of demes.
	Complete
	// Torus arranges demes on a √L × √L two-dimensional torus with
	// 4-neighborhoods (the natural geometry for surface-attached
	// communities such as biofilms). Sites must be a perfect square.
	Torus
)

// String returns the topology name.
func (t Topology) String() string {
	switch t {
	case Cycle:
		return "cycle"
	case Complete:
		return "complete"
	case Torus:
		return "torus"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// isqrt returns the integer square root of n, or -1 if n is not a perfect
// square.
func isqrt(n int) int {
	if n < 0 {
		return -1
	}
	r := 0
	for r*r < n {
		r++
	}
	if r*r != n {
		return -1
	}
	return r
}

// Params configures a spatial LV system.
type Params struct {
	// Local is the within-deme LV parameterization.
	Local lv.Params
	// Sites is the number of demes L >= 1.
	Sites int
	// Migration is the per-capita migration rate m >= 0.
	Migration float64
	// Topology is the deme adjacency (default Cycle).
	Topology Topology
}

// Validate checks the configuration.
func (p Params) Validate() error {
	if err := p.Local.Validate(); err != nil {
		return err
	}
	if p.Sites < 1 {
		return fmt.Errorf("spatial: need at least one deme, got %d", p.Sites)
	}
	if p.Migration < 0 {
		return fmt.Errorf("spatial: negative migration rate %v", p.Migration)
	}
	if p.Topology == 0 {
		return nil // default applied by NewSystem
	}
	if p.Topology != Cycle && p.Topology != Complete && p.Topology != Torus {
		return fmt.Errorf("spatial: unknown topology %d", p.Topology)
	}
	if p.Topology == Torus && isqrt(p.Sites) < 0 {
		return fmt.Errorf("spatial: torus needs a square deme count, got %d", p.Sites)
	}
	return nil
}

// System is a running spatial LV chain. It is not safe for concurrent use.
type System struct {
	params Params
	demes  []lv.State
	src    *rng.Source

	time      float64
	steps     int
	trackTime bool

	// totals[d] caches the within-deme total propensity (local reactions
	// + migration pressure) so only touched demes are recomputed.
	totals []float64
	sum    float64
}

// NewSystem creates a spatial system with the given per-deme initial
// configurations (one entry per deme).
func NewSystem(params Params, initial []lv.State, src *rng.Source) (*System, error) {
	if params.Topology == 0 {
		params.Topology = Cycle
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(initial) != params.Sites {
		return nil, fmt.Errorf("spatial: %d initial demes for %d sites", len(initial), params.Sites)
	}
	if src == nil {
		return nil, fmt.Errorf("spatial: nil random source")
	}
	demes := make([]lv.State, len(initial))
	for d, s := range initial {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("spatial: deme %d: %w", d, err)
		}
		demes[d] = s
	}
	sys := &System{
		params: params,
		demes:  demes,
		src:    src,
		totals: make([]float64, len(demes)),
	}
	for d := range demes {
		sys.refresh(d)
	}
	return sys, nil
}

// refresh recomputes deme d's cached propensity total and the global sum.
func (sys *System) refresh(d int) {
	_, local := lv.PropensitiesFor(sys.params.Local, sys.demes[d])
	migration := 0.0
	if sys.params.Sites > 1 {
		migration = sys.params.Migration * float64(sys.demes[d].Total())
	}
	sys.sum += local + migration - sys.totals[d]
	sys.totals[d] = local + migration
}

// SetTrackTime enables continuous-time accounting.
func (sys *System) SetTrackTime(on bool) { sys.trackTime = on }

// Deme returns the configuration of deme d.
func (sys *System) Deme(d int) lv.State { return sys.demes[d] }

// GlobalState returns the per-species totals across all demes.
func (sys *System) GlobalState() lv.State {
	var g lv.State
	for _, s := range sys.demes {
		g.X0 += s.X0
		g.X1 += s.X1
	}
	return g
}

// Time returns the accumulated continuous time (if tracking is enabled).
func (sys *System) Time() float64 { return sys.time }

// Steps returns the number of events fired.
func (sys *System) Steps() int { return sys.steps }

// neighbor returns a uniformly random neighbor of deme d under the
// configured topology.
func (sys *System) neighbor(d int) int {
	l := sys.params.Sites
	switch sys.params.Topology {
	case Complete:
		// Uniform over the other demes.
		v := sys.src.Intn(l - 1)
		if v >= d {
			v++
		}
		return v
	case Torus:
		k := isqrt(l)
		row, col := d/k, d%k
		switch sys.src.Intn(4) {
		case 0:
			row = (row + 1) % k
		case 1:
			row = (row - 1 + k) % k
		case 2:
			col = (col + 1) % k
		default:
			col = (col - 1 + k) % k
		}
		return row*k + col
	default: // Cycle
		if l == 2 {
			return 1 - d
		}
		if sys.src.Bernoulli(0.5) {
			return (d + 1) % l
		}
		return (d - 1 + l) % l
	}
}

// Step fires one event (a local reaction in some deme, or a migration). It
// returns false when the total propensity is zero.
func (sys *System) Step() bool {
	if sys.sum <= 0 {
		return false
	}
	if sys.trackTime {
		sys.time += sys.src.Exp(sys.sum)
	}
	// Pick a deme proportionally to its cached total.
	u := sys.src.Float64() * sys.sum
	d := len(sys.demes) - 1
	acc := 0.0
	for i, t := range sys.totals {
		if t <= 0 {
			continue
		}
		acc += t
		if u < acc {
			d = i
			break
		}
	}

	// Within the deme: local reaction vs migration.
	props, local := lv.PropensitiesFor(sys.params.Local, sys.demes[d])
	migration := 0.0
	if sys.params.Sites > 1 {
		migration = sys.params.Migration * float64(sys.demes[d].Total())
	}
	v := sys.src.Float64() * (local + migration)
	if v < migration {
		// Migration: pick the mover proportionally to counts.
		s := sys.demes[d]
		target := sys.neighbor(d)
		if sys.src.Float64()*float64(s.Total()) < float64(s.X0) {
			sys.demes[d].X0--
			sys.demes[target].X0++
		} else {
			sys.demes[d].X1--
			sys.demes[target].X1++
		}
		sys.refresh(d)
		sys.refresh(target)
	} else {
		// Local reaction: sample a channel proportionally.
		w := sys.src.Float64() * local
		kind := lv.EventKind(lv.NumEventKinds - 1)
		acc := 0.0
		for k, p := range props {
			if p <= 0 {
				continue
			}
			acc += p
			kind = lv.EventKind(k)
			if w < acc {
				break
			}
		}
		sys.demes[d] = lv.ApplyEvent(sys.params.Local, sys.demes[d], kind)
		sys.refresh(d)
	}
	sys.steps++
	return true
}

// Outcome summarizes a run to global consensus.
type Outcome struct {
	// Consensus reports whether one species went globally extinct within
	// the step budget.
	Consensus bool
	// Winner is the surviving species (0/1), or −1 for global double
	// extinction or no consensus.
	Winner int
	// MajorityWon reports whether the global initial majority survived.
	MajorityWon bool
	// Steps is the number of events fired.
	Steps int
	// Time is the continuous time at consensus (if tracked).
	Time float64
}

// Run simulates until global consensus or maxSteps events (0 means
// lv.DefaultMaxSteps).
func Run(params Params, initial []lv.State, src *rng.Source, maxSteps int, trackTime bool) (Outcome, error) {
	sys, err := NewSystem(params, initial, src)
	if err != nil {
		return Outcome{}, err
	}
	sys.SetTrackTime(trackTime)
	if maxSteps <= 0 {
		maxSteps = lv.DefaultMaxSteps
	}
	global := sys.GlobalState()
	majority := 0
	if global.X1 > global.X0 {
		majority = 1
	}
	out := Outcome{Winner: -1}
	for !sys.GlobalState().Consensus() {
		if sys.steps >= maxSteps || !sys.Step() {
			out.Steps = sys.steps
			out.Time = sys.time
			return out, nil
		}
	}
	out.Consensus = true
	out.Steps = sys.steps
	out.Time = sys.time
	out.Winner = sys.GlobalState().Winner()
	out.MajorityWon = out.Winner == majority
	return out, nil
}

// Protocol adapts the spatial system to the consensus.Protocol interface:
// the majority and minority individuals are distributed round-robin across
// the demes.
type Protocol struct {
	// Spatial holds everything except the initial configurations.
	Spatial Params
	// MaxSteps bounds each trial (0 = lv.DefaultMaxSteps).
	MaxSteps int
	// Label overrides the generated name.
	Label string
}

// Name implements consensus.Protocol.
func (p Protocol) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return fmt.Sprintf("spatial LV (%d demes, %s, m=%g)", p.Spatial.Sites, p.Spatial.Topology, p.Spatial.Migration)
}

// Trial implements consensus.Protocol.
func (p Protocol) Trial(n, delta int, src *rng.Source) (bool, error) {
	if n < 2 || delta < 0 || (n-delta)%2 != 0 || delta > n-2 {
		return false, fmt.Errorf("spatial: infeasible (n=%d, delta=%d)", n, delta)
	}
	if p.Spatial.Sites < 1 {
		return false, fmt.Errorf("spatial: no demes configured")
	}
	b := (n - delta) / 2
	a := n - b
	initial := make([]lv.State, p.Spatial.Sites)
	for i := 0; i < a; i++ {
		initial[i%p.Spatial.Sites].X0++
	}
	for i := 0; i < b; i++ {
		initial[i%p.Spatial.Sites].X1++
	}
	out, err := Run(p.Spatial, initial, src, p.MaxSteps, false)
	if err != nil {
		return false, err
	}
	return out.Consensus && out.MajorityWon, nil
}
