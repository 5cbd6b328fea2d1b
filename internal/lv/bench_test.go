package lv

import (
	"testing"

	"lvmajority/internal/cpufeat"
	"lvmajority/internal/rng"
)

// BenchmarkRunSD measures a full self-destructive consensus run at n = 1000
// with the specialized direct sampler (the workhorse of every experiment).
func BenchmarkRunSD(b *testing.B) {
	params := Neutral(1, 1, 1, 0, SelfDestructive)
	src := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := Run(params, State{X0: 600, X1: 400}, src, RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !out.Consensus {
			b.Fatal("no consensus")
		}
	}
}

// BenchmarkRunNSD is the non-self-destructive counterpart.
func BenchmarkRunNSD(b *testing.B) {
	params := Neutral(1, 1, 1, 0, NonSelfDestructive)
	src := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := Run(params, State{X0: 600, X1: 400}, src, RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !out.Consensus {
			b.Fatal("no consensus")
		}
	}
}

// BenchmarkLVKernel measures the fused event kernel on full self-
// destructive consensus runs at n = 10⁴, reporting ns per event. The
// allocs/op column is the kernel's zero-allocation guarantee: entire
// replicated runs produce no garbage.
func BenchmarkLVKernel(b *testing.B) {
	params := Neutral(1, 1, 1, 0, SelfDestructive)
	src := rng.New(1)
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		out, err := Run(params, State{X0: 6000, X1: 4000}, src, RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !out.Consensus {
			b.Fatal("no consensus")
		}
		events += int64(out.Steps)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkStep measures single-step cost without the Run bookkeeping.
func BenchmarkStep(b *testing.B) {
	params := Neutral(1, 1, 1, 0, SelfDestructive)
	fresh := func(seed uint64) *Chain {
		chain, err := NewChain(params, State{X0: 1 << 20, X1: 1 << 20}, rng.New(seed))
		if err != nil {
			b.Fatal(err)
		}
		return chain
	}
	chain := fresh(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := chain.Step(); !ok {
			// Long benchmark runs exhaust the chain (double
			// extinction); restart outside the timer.
			b.StopTimer()
			chain = fresh(uint64(i))
			b.StartTimer()
		}
	}
}

// BenchmarkLVBlock measures the block engine and the scalar kernel on
// identical replicate streams, in ns per event, in these rows: block, the
// dispatching engine (the widest round kernel the CPU has); avx512 and
// avx2, each round kernel as the widest, printed only where the CPU has
// it; portable, the Go round alone; and scalar, Run. The states are
// BenchmarkLVKernel's, n = 1024 near the SD and NSD thresholds (gaps 12
// and 100), and n = 4096 near the NSD threshold (gap 226, about 3,900
// events per trial), the lv-nsd sweep's costliest point. One iteration
// runs a window of replicates, the block engines in blocks of BlockLanes
// as the Monte-Carlo pool hands them out. Every engine fires the same
// events on a stream, so the event count comes from Run.
func BenchmarkLVBlock(b *testing.B) {
	const window = 64
	for _, c := range []struct {
		name    string
		params  Params
		initial State
	}{
		{"sd-10000", Neutral(1, 1, 1, 0, SelfDestructive), State{X0: 6000, X1: 4000}},
		{"sd-1024-gap12", Neutral(1, 1, 1, 0, SelfDestructive), State{X0: 518, X1: 506}},
		{"nsd-1024-gap100", Neutral(1, 1, 1, 0, NonSelfDestructive), State{X0: 562, X1: 462}},
		{"nsd-4096-gap226", Neutral(1, 1, 1, 0, NonSelfDestructive), State{X0: 2161, X1: 1935}},
	} {
		var events int64
		var src rng.Source
		for rep := range window {
			src.ReseedStream(1, uint64(rep))
			out, err := Run(c.params, c.initial, &src, RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			events += int64(out.Steps)
		}
		perEvent := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events*int64(b.N)), "ns/event")
		}
		engines := append([]Engine{{Name: "block", k: cpufeat.Widest()}}, Engines()...)
		for _, engine := range engines {
			b.Run(c.name+"/"+engine.Name, func(b *testing.B) {
				blk, err := NewBlock(c.params, c.initial, 0, false)
				if err != nil {
					b.Fatal(err)
				}
				wins := make([]bool, BlockLanes)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for lo := 0; lo < window; lo += BlockLanes {
						if err := blk.run(1, lo, lo+BlockLanes, wins, engine.k); err != nil {
							b.Fatal(err)
						}
					}
				}
				perEvent(b)
			})
		}
		b.Run(c.name+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for rep := range window {
					src.ReseedStream(1, uint64(rep))
					if _, err := Run(c.params, c.initial, &src, RunOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			}
			perEvent(b)
		})
	}
}
