package protocols

import (
	"fmt"
	"testing"

	"lvmajority/internal/cpufeat"
	"lvmajority/internal/rng"
)

// benchKernel runs full trials of the 3-state approximate-majority baseline
// at n = 10⁴ through the given trial runner and reports ns per simulated
// interaction — skipped null interactions count, since every runner
// accounts for exactly the same interaction-sequence law.
func benchKernel(b *testing.B, trial func(n, delta int, src *rng.Source) (bool, int, error)) {
	b.Helper()
	src := rng.New(1)
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		_, steps, err := trial(10_000, 400, src)
		if err != nil {
			b.Fatal(err)
		}
		events += int64(steps)
	}
	if events == 0 {
		b.Fatal("no interactions simulated")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkPopulationKernel compares the historical event loop (re-validate
// per trial, Rule call and range check per interaction, Done on every
// tick) against the compiled per-event kernel and the batch null-skipping
// kernel on the paper's 3-state approximate-majority baseline (experiment
// E-BASE) at n = 10⁴.
func BenchmarkPopulationKernel(b *testing.B) {
	b.Run("old", func(b *testing.B) {
		p := NewThreeStateAM()
		benchKernel(b, func(n, delta int, src *rng.Source) (bool, int, error) {
			return historicalTrial(p, n, delta, src)
		})
	})
	b.Run("perevent", func(b *testing.B) {
		p := NewThreeStateAM()
		p.Kernel = KernelPerEvent
		benchKernel(b, p.run)
	})
	b.Run("batch", func(b *testing.B) {
		p := NewThreeStateAM()
		benchKernel(b, p.run)
	})
	b.Run("lockstep", func(b *testing.B) {
		benchLockstep(b, DefaultLockstepLanes)
	})
}

// benchLockstep prices the lockstep block engine on the same workload: one
// op is a full block of `lanes` trials, and ns/event divides by the summed
// per-lane interaction ticks the engine accounts — the same law (and,
// lane for lane, the same byte-exact executions) as the batch kernel
// above. The engine is built once; steady state must not allocate.
func benchLockstep(b *testing.B, lanes int) {
	b.Helper()
	p := NewThreeStateAM()
	p.Kernel = KernelLockstep
	p.Lanes = lanes
	e, err := p.newLockstep(10_000, 400)
	if err != nil {
		b.Fatal(err)
	}
	wins := make([]bool, lanes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.runBlock(1, i*lanes, (i+1)*lanes, wins); err != nil {
			b.Fatal(err)
		}
	}
	if e.ticks == 0 {
		b.Fatal("no interactions simulated")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.ticks), "ns/event")
}

// BenchmarkLockstepLanes prices the lane-width knob: ILP across per-lane
// RNG chains saturates well below the maximum width, while wider blocks
// retire stragglers more smoothly.
func BenchmarkLockstepLanes(b *testing.B) {
	for _, lanes := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("R%d", lanes), func(b *testing.B) {
			benchLockstep(b, lanes)
		})
	}
}

// BenchmarkLockstepBlock is the lockstep engine's kernel rung: one op is a
// block of DefaultLockstepLanes trials, run on the dispatching engine
// (block: the AVX2 tick kernel where it fits), on the Go rounds alone
// (portable) and as scalar batch-kernel trials (batch), in ns per
// simulated interaction and µs per trial. Every engine simulates the same
// interactions on a stream, so the counts come from the engine's own tick
// accounting. The 3-state approximate majority is E-BASE's baseline and
// runs on sweep4; the 4-state exact majority runs on sweepN.
func BenchmarkLockstepBlock(b *testing.B) {
	const lanes = DefaultLockstepLanes
	for _, c := range []struct {
		name     string
		mk       func() *PopulationProtocol
		n, delta int
	}{
		{"am-10000-gap400", NewThreeStateAM, 10_000, 400},
		{"am-1024-gap98", NewThreeStateAM, 1024, 98},
		{"am-256-gap46", NewThreeStateAM, 256, 46},
		{"exact-64-gap8", NewFourStateExact, 64, 8},
	} {
		report := func(b *testing.B, events int64) {
			if events == 0 {
				b.Fatal("no interactions simulated")
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(events), "ns/event")
			b.ReportMetric(ns/1e3/float64(b.N*lanes), "us/trial")
		}
		for _, engine := range []struct {
			name string
			avx2 bool
		}{{"block", cpufeat.AVX2()}, {"portable", false}} {
			b.Run(c.name+"/"+engine.name, func(b *testing.B) {
				p := c.mk()
				p.Kernel = KernelLockstep
				p.Lanes = lanes
				e, err := p.newLockstep(c.n, c.delta)
				if err != nil {
					b.Fatal(err)
				}
				wins := make([]bool, lanes)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := e.run(1, i*lanes, (i+1)*lanes, wins, engine.avx2); err != nil {
						b.Fatal(err)
					}
				}
				report(b, e.ticks)
			})
		}
		b.Run(c.name+"/batch", func(b *testing.B) {
			p := c.mk()
			var src rng.Source
			var events int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for rep := i * lanes; rep < (i+1)*lanes; rep++ {
					src.ReseedStream(1, uint64(rep))
					_, steps, err := p.run(c.n, c.delta, &src)
					if err != nil {
						b.Fatal(err)
					}
					events += int64(steps)
				}
			}
			report(b, events)
		})
	}
}
