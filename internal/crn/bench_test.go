package crn

import (
	"testing"

	"lvmajority/internal/rng"
)

// lvBenchNetwork builds the two-species NSD Lotka–Volterra network used to
// compare the direct method and tau-leaping on identical dynamics.
func lvBenchNetwork(b *testing.B) *Network {
	b.Helper()
	net, err := NewNetwork("X0", "X1")
	if err != nil {
		b.Fatal(err)
	}
	for i := Species(0); i < 2; i++ {
		other := 1 - i
		net.MustAddReaction(Reaction{Reactants: []Species{i}, Products: []Species{i, i}, Rate: 1})
		net.MustAddReaction(Reaction{Reactants: []Species{i}, Rate: 1})
		net.MustAddReaction(Reaction{Reactants: []Species{i, other}, Products: []Species{i}, Rate: 1})
	}
	return net
}

// cascadeNetwork builds a cyclic unimolecular conversion network
// X_i → X_{i+1 mod m} with m channels. Counts are conserved, so the chain
// never absorbs — ideal for steady-state per-event measurement — and each
// reaction's dependency list has just three entries, so the incremental
// kernel recomputes 3 propensities per event where the naive direct method
// recomputes all m.
func cascadeNetwork(b testing.TB, m int) *Network {
	b.Helper()
	names := make([]string, m)
	for i := range names {
		names[i] = "X" + string(rune('A'+i/26)) + string(rune('a'+i%26))
	}
	net, err := NewNetwork(names...)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < m; i++ {
		net.MustAddReaction(Reaction{
			Reactants: []Species{Species(i)},
			Products:  []Species{Species((i + 1) % m)},
			Rate:      1 + float64(i%3)/4,
		})
	}
	return net
}

// BenchmarkIncrementalSSA compares the naive direct method (recompute and
// rescan every propensity per event, the pre-incremental Simulator) against
// the incremental-propensity kernel, one op per event on the steady-state
// 48-channel cascade at total count 10⁴. The incremental side recomputes
// only the fired reaction's dependents, then resums and scans the cached
// array like the naive side.
func BenchmarkIncrementalSSA(b *testing.B) {
	const m = 48
	initial := make([]int, m)
	for i := range initial {
		initial[i] = 10_000 / m
	}

	b.Run("naive", func(b *testing.B) {
		sim := newNaiveSimulator(cascadeNetwork(b, m), initial, rng.New(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.step(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		sim, err := NewSimulator(cascadeNetwork(b, m), initial, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Step(); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The 5-channel Condon-style network, for the parity record.
	b.Run("incremental-small", func(b *testing.B) {
		net := condonLikeNetwork(b)
		sim, err := NewSimulator(net, []int{6000, 4000, 0}, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Step(); err != nil {
				b.StopTimer()
				if err := sim.Reset([]int{6000, 4000, 0}, rng.New(uint64(i))); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		}
	})
}

// BenchmarkDirectMethod measures the Gillespie direct method on a full
// LV consensus run (ablation baseline for the simulator design choices).
func BenchmarkDirectMethod(b *testing.B) {
	net := lvBenchNetwork(b)
	src := rng.New(1)
	stop := func(state []int) bool { return state[0] == 0 || state[1] == 0 }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := NewEngine(net, []int{600, 400}, EngineDirect, true, src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(sim, stop, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTauLeaping measures the approximate tau-leaping simulator on the
// same dynamics.
func BenchmarkTauLeaping(b *testing.B) {
	net := lvBenchNetwork(b)
	src := rng.New(1)
	stop := func(state []int) bool { return state[0] == 0 || state[1] == 0 }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := NewLeapSimulator(net, []int{600, 400}, src, LeapOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(sim, stop, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}
