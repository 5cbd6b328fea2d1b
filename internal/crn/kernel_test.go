package crn

import (
	"fmt"
	"math"
	"testing"

	"lvmajority/internal/rng"
)

// naiveSimulator replays the historical direct method with no propensity
// cache: every propensity is recomputed and resummed from scratch on every
// event, exactly as the pre-incremental Simulator did. It is the
// byte-identity oracle for the incremental kernel.
type naiveSimulator struct {
	net   *Network
	state []int
	src   *rng.Source
	props []float64
}

func newNaiveSimulator(net *Network, initial []int, src *rng.Source) *naiveSimulator {
	state := make([]int, len(initial))
	copy(state, initial)
	return &naiveSimulator{net: net, state: state, src: src, props: make([]float64, net.NumReactions())}
}

func (sim *naiveSimulator) step() (int, error) {
	var total float64
	for r := range sim.props {
		p := sim.net.Propensity(r, sim.state)
		sim.props[r] = p
		total += p
	}
	if total <= 0 {
		return 0, ErrExhausted
	}
	u := sim.src.Float64() * total
	acc := 0.0
	last := 0
	for r, p := range sim.props {
		if p == 0 {
			continue
		}
		acc += p
		last = r
		if u < acc {
			if err := sim.net.Apply(r, sim.state); err != nil {
				return 0, err
			}
			return r, nil
		}
	}
	if err := sim.net.Apply(last, sim.state); err != nil {
		return 0, err
	}
	return last, nil
}

// condonLikeNetwork is a 5-reaction, 3-species network exercising shared
// reactants across channels (every channel depends on most others).
func condonLikeNetwork(t testing.TB) *Network {
	t.Helper()
	net, err := NewNetwork("X", "Y", "B")
	if err != nil {
		t.Fatal(err)
	}
	const x, y, b = Species(0), Species(1), Species(2)
	net.MustAddReaction(Reaction{Reactants: []Species{x, y}, Products: []Species{x, b}, Rate: 1})
	net.MustAddReaction(Reaction{Reactants: []Species{y, x}, Products: []Species{y, b}, Rate: 1})
	net.MustAddReaction(Reaction{Reactants: []Species{x, b}, Products: []Species{x, x}, Rate: 1})
	net.MustAddReaction(Reaction{Reactants: []Species{y, b}, Products: []Species{y, y}, Rate: 1})
	net.MustAddReaction(Reaction{Reactants: []Species{b}, Products: []Species{b, b}, Rate: 0.01})
	return net
}

// TestIncrementalByteIdenticalToNaive drives the incremental Simulator and
// the naive full-recompute oracle from identical streams and demands the
// exact same reaction sequence and states: the propensity cache must be
// invisible at the bit level, on a 5-reaction network and on a 48-channel
// cascade alike.
func TestIncrementalByteIdenticalToNaive(t *testing.T) {
	cascade := make([]int, 48)
	for i := range cascade {
		cascade[i] = 200
	}
	for _, tc := range []struct {
		name    string
		net     *Network
		initial []int
	}{
		{"condon", condonLikeNetwork(t), []int{60, 40, 0}},
		{"cascade-48", cascadeNetwork(t, 48), cascade},
	} {
		for seed := uint64(1); seed <= 5; seed++ {
			sim, err := NewSimulator(tc.net, tc.initial, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			oracle := newNaiveSimulator(tc.net, tc.initial, rng.New(seed))
			for i := 0; i < 100_000; i++ {
				got, err1 := sim.Step()
				want, err2 := oracle.step()
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s seed %d event %d: incremental err=%v, naive err=%v", tc.name, seed, i, err1, err2)
				}
				if err1 != nil {
					break
				}
				if got != want {
					t.Fatalf("%s seed %d event %d: incremental fired %d, naive fired %d", tc.name, seed, i, got, want)
				}
				for s, c := range sim.StateView() {
					if oracle.state[s] != c {
						t.Fatalf("%s seed %d event %d: state diverged: %v vs %v", tc.name, seed, i, sim.StateView(), oracle.state)
					}
				}
			}
		}
	}
}

// TestIncrementalCacheFresh verifies that after every fired reaction the
// cached propensities equal a from-scratch recomputation (the dependency
// graph misses nothing).
func TestIncrementalCacheFresh(t *testing.T) {
	net := condonLikeNetwork(t)
	sim, err := NewSimulator(net, []int{30, 20, 0}, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		if _, err := sim.Step(); err != nil {
			break
		}
		for r := range sim.props {
			if want := net.Propensity(r, sim.state); sim.props[r] != want {
				t.Fatalf("event %d: cached propensity[%d] = %v, recomputed %v", i, r, sim.props[r], want)
			}
		}
	}
}

// sparseVoterNetwork builds a 2-species network with many parallel
// channels, more than any network the repository ships.
func sparseVoterNetwork(t testing.TB, channels int) *Network {
	t.Helper()
	net, err := NewNetwork("X", "Y")
	if err != nil {
		t.Fatal(err)
	}
	const x, y = Species(0), Species(1)
	for i := 0; i < channels; i++ {
		// Alternate directions in mirrored pairs: channel 2k (X wins) and
		// channel 2k+1 (Y wins) share a rate, so the two directions have
		// identical total rate and the gap is a ±1 martingale.
		rate := 1 + float64((i/2)%7)/10
		if i%2 == 0 {
			net.MustAddReaction(Reaction{Name: fmt.Sprintf("xwins%d", i), Reactants: []Species{x, y}, Products: []Species{x, x}, Rate: rate})
		} else {
			net.MustAddReaction(Reaction{Name: fmt.Sprintf("ywins%d", i), Reactants: []Species{x, y}, Products: []Species{y, y}, Rate: rate})
		}
	}
	return net
}

// TestSparsePathMatchesNaiveDistribution chi-square-tests the first-event
// distribution of the kernel on a 40-channel network against exact
// propensity proportions.
func TestSparsePathMatchesNaiveDistribution(t *testing.T) {
	net := sparseVoterNetwork(t, 40)
	initial := []int{25, 15}
	sim, err := NewSimulator(net, initial, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}

	var total float64
	props := make([]float64, net.NumReactions())
	for r := range props {
		props[r] = net.Propensity(r, initial)
		total += props[r]
	}

	const draws = 200_000
	counts := make([]int, net.NumReactions())
	for i := 0; i < draws; i++ {
		if err := sim.Reset(initial, rng.New(uint64(1000+i))); err != nil {
			t.Fatal(err)
		}
		r, err := sim.Step()
		if err != nil {
			t.Fatal(err)
		}
		counts[r]++
	}

	// Pearson chi-square against the exact propensity proportions. With 39
	// degrees of freedom the 99.9% quantile is ~72.1.
	var chi2 float64
	for r, c := range counts {
		expected := float64(draws) * props[r] / total
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 72.1 {
		t.Errorf("first-event chi-square = %v over 39 dof (99.9%% quantile 72.1)", chi2)
	}
}

// TestSparsePathLongRunAgreesWithDense runs a 34-channel voter model to
// consensus and cross-checks the winner frequency against the exact
// martingale probability a/(a+b).
func TestSparsePathLongRunAgreesWithDense(t *testing.T) {
	net := sparseVoterNetwork(t, 34)
	// Equal total rate in both directions: X wins with probability
	// exactly a/(a+b) (gap martingale), here 25/40.
	initial := []int{25, 15}
	sim, err := NewSimulator(net, initial, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// Mirrored channel pairs share rates, so both directions have the
	// same total rate and the exact win probability is a/(a+b).
	const trials = 4000
	wins := 0
	for i := 0; i < trials; i++ {
		if err := sim.Reset(initial, rng.New(uint64(i))); err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := sim.Step(); err != nil {
				break
			}
			if sim.Count(0) == 0 || sim.Count(1) == 0 {
				break
			}
		}
		if sim.Count(0) > 0 {
			wins++
		}
	}
	want := 25.0 / 40.0
	got := float64(wins) / trials
	// Z999 half-width for p ~ 0.625 over 4000 trials is ~0.025.
	if math.Abs(got-want) > 0.03 {
		t.Errorf("34-channel win frequency %v, exact %v", got, want)
	}
}

// TestSelectChannelSlackSkipsZeroTail is the regression test for the
// floating-point-slack fallback: when u lands at or beyond the accumulated
// total, the selected channel must be the last one with positive
// propensity, never a trailing zero-propensity channel.
func TestSelectChannelSlackSkipsZeroTail(t *testing.T) {
	cases := []struct {
		props []float64
		u     float64
		want  int
	}{
		// Zero tail: slack must return channel 3, not 4 or 5.
		{[]float64{0.3, 0, 0, 0.3, 0, 0}, 0.6, 3},
		{[]float64{0.3, 0, 0, 0.3, 0, 0}, 1e9, 3},
		// Zero head and tail.
		{[]float64{0, 0.5, 0, 0}, 0.5, 1},
		// Regular in-range picks are unaffected by the fallback.
		{[]float64{0.3, 0, 0, 0.3, 0, 0}, 0.0, 0},
		{[]float64{0.3, 0, 0, 0.3, 0, 0}, 0.29, 0},
		{[]float64{0.3, 0, 0, 0.3, 0, 0}, 0.31, 3},
		// All-zero vector: no channel is selectable.
		{[]float64{0, 0, 0}, 0.1, -1},
	}
	for _, tc := range cases {
		if got := selectChannel(tc.props, tc.u); got != tc.want {
			t.Errorf("selectChannel(%v, %v) = %d, want %d", tc.props, tc.u, got, tc.want)
		}
	}
}

// TestDependentsSharedAndComplete checks the network's dependency graph:
// r's dependents contain every reaction reading a species r changes, with
// r first.
func TestDependentsSharedAndComplete(t *testing.T) {
	net := condonLikeNetwork(t)
	for r := 0; r < net.NumReactions(); r++ {
		deps := net.dependencyGraph()[r]
		if len(deps) == 0 || deps[0] != r {
			t.Fatalf("dependents of %d = %v, want r itself first", r, deps)
		}
		in := make(map[int]bool, len(deps))
		for _, d := range deps {
			in[d] = true
		}
		for other := 0; other < net.NumReactions(); other++ {
			affected := false
			for s := 0; s < net.NumSpecies(); s++ {
				if net.Delta(r, Species(s)) != 0 && reactantMultiplicity(net, other, Species(s)) > 0 {
					affected = true
				}
			}
			if affected && !in[other] {
				t.Errorf("dependents of %d = %v miss affected reaction %d", r, deps, other)
			}
		}
	}
}

func reactantMultiplicity(net *Network, r int, s Species) int {
	m := 0
	for _, rs := range net.Reaction(r).Reactants {
		if rs == s {
			m++
		}
	}
	return m
}
