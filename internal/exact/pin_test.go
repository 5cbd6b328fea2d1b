package exact

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"lvmajority/internal/crn"
	"lvmajority/internal/lv"
	"lvmajority/internal/protocols"
)

// TestGridsBitForBit pins both chain sources at full precision: it hashes
// the IEEE bits of every ρ and E[T] cell of five solved grids (FNV-64a over
// ρ then E[T], row by row) and compares them with hashes recorded when the
// solver still had one Gauss–Seidel copy per source. The rates are not
// dyadic and γ ≠ 0, so any change to the order of a sum or a product, or a
// fused multiply-add, changes a hash.
func TestGridsBitForBit(t *testing.T) {
	const (
		m   = 40
		tie = 0.37
	)
	lvParams := func(comp lv.Competition) lv.Params {
		return lv.Params{
			Beta: 1.3, Delta: 0.7,
			Alpha:       [2]float64{0.9, 1.1},
			Gamma:       [2]float64{0.3, 0.6},
			Competition: comp,
		}
	}
	lvSolve := func(comp lv.Competition) func(Options) (*Solution, error) {
		return func(opts Options) (*Solution, error) {
			return SolveWithSteps(lvParams(comp), opts)
		}
	}
	netSolve := func(build func() (*crn.Network, error)) func(Options) (*Solution, error) {
		return func(opts Options) (*Solution, error) {
			net, err := build()
			if err != nil {
				return nil, err
			}
			return SolveNetworkWithSteps(net, opts)
		}
	}
	general := func(comp lv.Competition) func() (*crn.Network, error) {
		return func() (*crn.Network, error) {
			p := protocols.FromNeutral(lvParams(comp))
			p.Beta[1] = 1.9
			return p.Network()
		}
	}
	parsed := func() (*crn.Network, error) {
		return crn.Parse("species: X0 X1\n" +
			"X0 -> 0 @ 1.1\n" +
			"X1 -> 0 @ 0.7\n" +
			"X0 + X1 -> X1 @ 0.9\n" +
			"2 X1 -> X1 @ 0.3\n")
	}
	cases := []struct {
		name  string
		solve func(Options) (*Solution, error)
		want  uint64
	}{
		{"lv-sd", lvSolve(lv.SelfDestructive), 0xf5d5105c545f444c},
		{"lv-nsd", lvSolve(lv.NonSelfDestructive), 0x4fd696bcbbc9a9be},
		{"general-sd", netSolve(general(lv.SelfDestructive)), 0x672964519f89f40c},
		{"general-nsd", netSolve(general(lv.NonSelfDestructive)), 0x37a85e0b8d4fa5dd},
		{"parsed", netSolve(parsed), 0xec188754c82a0c8e},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sol, err := tc.solve(Options{Max: m, TieValue: tie})
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var buf [8]byte
			for _, cell := range []func(a, b int) (float64, error){sol.Rho, sol.Steps} {
				for a := 0; a <= m; a++ {
					for b := 0; b <= m; b++ {
						v, err := cell(a, b)
						if err != nil {
							t.Fatal(err)
						}
						binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
						h.Write(buf[:])
					}
				}
			}
			if got := h.Sum64(); got != tc.want {
				t.Errorf("grid hash %#016x, want %#016x", got, tc.want)
			}
		})
	}
}
