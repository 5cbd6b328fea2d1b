package mc

import (
	"testing"

	"lvmajority/internal/crn"
	"lvmajority/internal/lv"
	"lvmajority/internal/protocols"
	"lvmajority/internal/rng"
)

// The benchmark pair below isolates the allocation effect of engine reuse:
// both run the same 1000-replicate LV-SD workload (n=128, gap 16) on the
// same pool; the "fresh" variant constructs one engine per replicate — the
// historical per-trial pattern of consensus.EstimateWinProbability — while
// the "reused" variant resets one engine per worker.

func benchOptions() Options {
	return Options{Replicates: 1000, Workers: 4, Seed: 42}
}

func lvWorkload(tb testing.TB) (*crn.Network, []int) {
	tb.Helper()
	net, err := protocols.FromNeutral(lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)).Network()
	if err != nil {
		tb.Fatal(err)
	}
	return net, []int{72, 56}
}

func lvConsensus(state []int) bool { return state[0] == 0 || state[1] == 0 }

// majorityWins runs e to consensus and reports whether species 0 won.
func majorityWins(e crn.Engine) (bool, error) {
	if _, err := crn.Run(e, lvConsensus, 0, 0); err != nil {
		return false, err
	}
	st := e.StateView()
	return st[0] > 0 && st[1] == 0, nil
}

func BenchmarkReplicateFreshEngine(b *testing.B) {
	net, initial := lvWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := Run(benchOptions(), func(_ int, src *rng.Source) (bool, error) {
			e, err := crn.NewEngine(net, initial, crn.EngineDirect, false, src)
			if err != nil {
				return false, err
			}
			return majorityWins(e)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplicateReusedEngine(b *testing.B) {
	net, initial := lvWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := RunEngine(benchOptions(),
			func() (crn.Engine, error) { return crn.NewEngine(net, initial, crn.EngineDirect, false, rng.New(0)) },
			func(_ int, e crn.Engine, src *rng.Source) (bool, error) {
				if err := e.Reset(initial, src); err != nil {
					return false, err
				}
				return majorityWins(e)
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}
