package crn

import (
	"container/heap"
	"fmt"
	"math"

	"lvmajority/internal/rng"
)

// NRMSimulator implements the Gibson–Bruck next-reaction method: an exact
// continuous-time simulator that keeps one absolute firing time per channel
// in an indexed priority queue and only recomputes the propensities of
// channels affected by the fired reaction (via a dependency graph). For
// networks with many channels it does O(D·log R) work per event, where D is
// the dependency out-degree, versus the direct method's O(R).
//
// It samples the same continuous-time Markov chain as Simulator.StepTime.
type NRMSimulator struct {
	net   *Network
	state []int
	src   *rng.Source

	time  float64
	steps int

	props []float64
	// queue is the indexed min-heap of (absolute next firing time,
	// reaction).
	queue nrmHeap
	// pos[r] is the heap position of reaction r.
	pos []int
	// deps[r] lists the reactions whose propensity can change when r
	// fires (including r itself).
	deps [][]int
}

type nrmEntry struct {
	time     float64
	reaction int
}

type nrmHeap struct {
	entries []nrmEntry
	pos     []int
}

func (h *nrmHeap) Len() int           { return len(h.entries) }
func (h *nrmHeap) Less(i, j int) bool { return h.entries[i].time < h.entries[j].time }
func (h *nrmHeap) Swap(i, j int) {
	h.entries[i], h.entries[j] = h.entries[j], h.entries[i]
	h.pos[h.entries[i].reaction] = i
	h.pos[h.entries[j].reaction] = j
}
func (h *nrmHeap) Push(x any) {
	e := x.(nrmEntry)
	h.pos[e.reaction] = len(h.entries)
	h.entries = append(h.entries, e)
}
func (h *nrmHeap) Pop() any {
	old := h.entries
	e := old[len(old)-1]
	h.entries = old[:len(old)-1]
	return e
}

// NewNRMSimulator builds a next-reaction simulator.
func NewNRMSimulator(net *Network, initial []int, src *rng.Source) (*NRMSimulator, error) {
	if len(initial) != net.NumSpecies() {
		return nil, fmt.Errorf("crn: initial state has %d species, network has %d", len(initial), net.NumSpecies())
	}
	for i, x := range initial {
		if x < 0 {
			return nil, fmt.Errorf("crn: negative initial count %d for species %s", x, net.SpeciesName(Species(i)))
		}
	}
	if src == nil {
		return nil, fmt.Errorf("crn: nil random source")
	}
	state := make([]int, len(initial))
	copy(state, initial)

	nr := net.NumReactions()
	sim := &NRMSimulator{
		net:   net,
		state: state,
		src:   src,
		props: make([]float64, nr),
		deps:  net.dependencyGraph(),
	}
	sim.queue.pos = make([]int, nr)
	sim.queue.entries = make([]nrmEntry, 0, nr)
	for r := 0; r < nr; r++ {
		sim.props[r] = net.Propensity(r, sim.state)
		sim.queue.entries = append(sim.queue.entries, nrmEntry{
			time:     firingTime(0, sim.props[r], src),
			reaction: r,
		})
		sim.queue.pos[r] = r
	}
	heap.Init(&sim.queue)
	return sim, nil
}

// firingTime draws an absolute next firing time for a channel with the
// given propensity, measured from now.
func firingTime(now, prop float64, src *rng.Source) float64 {
	if prop <= 0 {
		return math.Inf(1)
	}
	return now + src.Exp(prop)
}

// State returns a copy of the current state.
func (sim *NRMSimulator) State() []int {
	out := make([]int, len(sim.state))
	copy(out, sim.state)
	return out
}

// StateView returns the live state slice without copying. Callers must not
// modify or retain it past the next Step or Reset call.
func (sim *NRMSimulator) StateView() []int { return sim.state }

// Reset returns the simulator to the given initial state with a fresh
// random stream, reusing its buffers: the clock restarts at zero and every
// channel draws a fresh firing time.
func (sim *NRMSimulator) Reset(initial []int, src *rng.Source) error {
	if len(initial) != len(sim.state) {
		return fmt.Errorf("crn: initial state has %d species, network has %d", len(initial), len(sim.state))
	}
	for i, x := range initial {
		if x < 0 {
			return fmt.Errorf("crn: negative initial count %d for species %s", x, sim.net.SpeciesName(Species(i)))
		}
	}
	if src == nil {
		return fmt.Errorf("crn: nil random source")
	}
	copy(sim.state, initial)
	sim.src = src
	sim.time = 0
	sim.steps = 0
	for r := range sim.props {
		sim.props[r] = sim.net.Propensity(r, sim.state)
		sim.queue.entries[r] = nrmEntry{
			time:     firingTime(0, sim.props[r], src),
			reaction: r,
		}
		sim.queue.pos[r] = r
	}
	heap.Init(&sim.queue)
	return nil
}

// Count returns the current count of species s.
func (sim *NRMSimulator) Count(s Species) int { return sim.state[s] }

// Time returns the simulated time.
func (sim *NRMSimulator) Time() float64 { return sim.time }

// Steps returns the number of reactions fired.
func (sim *NRMSimulator) Steps() int { return sim.steps }

// Step fires the next reaction. It returns ErrExhausted when no channel can
// ever fire again.
func (sim *NRMSimulator) Step() (int, error) {
	top := sim.queue.entries[0]
	if math.IsInf(top.time, 1) {
		return 0, ErrExhausted
	}
	r := top.reaction
	sim.time = top.time
	if err := sim.net.Apply(r, sim.state); err != nil {
		return 0, err
	}
	sim.steps++

	// Update the fired channel and its dependents. The fired channel
	// draws a fresh exponential; dependents could reuse their residual
	// clocks (the classical Gibson–Bruck rescaling), but redrawing is
	// also exact and keeps the implementation simple and allocation-free.
	for _, dep := range sim.deps[r] {
		sim.props[dep] = sim.net.Propensity(dep, sim.state)
		idx := sim.queue.pos[dep]
		sim.queue.entries[idx].time = firingTime(sim.time, sim.props[dep], sim.src)
		heap.Fix(&sim.queue, idx)
	}
	return r, nil
}
