package lv

import (
	"math"
	"testing"

	"lvmajority/internal/rng"
	"lvmajority/internal/testutil"
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

// blockBenchCase is one chain of BenchmarkLVBlock: its rates and the
// initial state of every replicate.
type blockBenchCase struct {
	name    string
	params  Params
	initial State
}

// blockBenchCases are BenchmarkLVBlock's rows. The γ = 0 rows are
// BenchmarkLVKernel's state, n = 1024 near the SD and NSD thresholds (gaps
// 12 and 100), and n = 4096 near the NSD threshold (gap 226, about 3,900
// events per trial), the lv-nsd sweep's costliest point. sd-intra-1024
// has γ = 1 at sd-1024-gap12's state, so the round kernels compute the
// intraspecific terms that the γ = 0 rows skip.
var blockBenchCases = []blockBenchCase{
	{"sd-10000", Neutral(1, 1, 1, 0, SelfDestructive), State{X0: 6000, X1: 4000}},
	sdGap12,
	{"nsd-1024-gap100", Neutral(1, 1, 1, 0, NonSelfDestructive), State{X0: 562, X1: 462}},
	{"nsd-4096-gap226", Neutral(1, 1, 1, 0, NonSelfDestructive), State{X0: 2161, X1: 1935}},
	{"sd-intra-1024", Neutral(1, 1, 1, 1, SelfDestructive), State{X0: 518, X1: 506}},
}

// sdGap12 is the row TestBlockKernelsCheaperThanGoRound times.
var sdGap12 = blockBenchCase{"sd-1024-gap12", Neutral(1, 1, 1, 0, SelfDestructive), State{X0: 518, X1: 506}}

// blockBenchWindow is the replicates one benchmark iteration runs.
const blockBenchWindow = 64

// events returns the events Run fires on the window's replicate streams.
// Every engine fires the same events on a stream.
func (c blockBenchCase) events(tb testing.TB) int64 {
	var events int64
	var src rng.Source
	for rep := range blockBenchWindow {
		src.ReseedStream(1, uint64(rep))
		out, err := Run(c.params, c.initial, &src, RunOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		events += int64(out.Steps)
	}
	return events
}

// blockWindows returns an op that runs the window through run, Block.Run
// or an Engine's Run, in blocks of BlockLanes as the Monte-Carlo pool
// hands them out, and returns the window's events.
func blockWindows(tb testing.TB, c blockBenchCase, events int64, run func(*Block, uint64, int, int, []bool) error) func() int64 {
	blk, err := NewBlock(c.params, c.initial, 0, false)
	if err != nil {
		tb.Fatal(err)
	}
	wins := make([]bool, BlockLanes)
	return func() int64 {
		for lo := 0; lo < blockBenchWindow; lo += BlockLanes {
			if err := run(blk, 1, lo, lo+BlockLanes, wins); err != nil {
				tb.Fatal(err)
			}
		}
		return events
	}
}

// benchBlock runs blockWindows' windows and reports ns per event.
func benchBlock(b *testing.B, c blockBenchCase, events int64, run func(*Block, uint64, int, int, []bool) error) {
	next := blockWindows(b, c, events, run)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events*int64(b.N)), "ns/event")
}

// BenchmarkLVBlock measures the block engine and the scalar kernel on
// identical replicate streams, in ns per event, in these rows: block, the
// dispatching engine Block.Run (the widest round kernel the CPU has);
// avx512 and avx2, each round kernel as the widest, printed only where the
// CPU has it; portable, the Go round alone; and scalar, Run. One iteration
// runs a window of replicates (see blockBenchCases).
func BenchmarkLVBlock(b *testing.B) {
	for _, c := range blockBenchCases {
		events := c.events(b)
		b.Run(c.name+"/block", func(b *testing.B) {
			benchBlock(b, c, events, (*Block).Run)
		})
		for _, engine := range Engines() {
			b.Run(c.name+"/"+engine.Name, func(b *testing.B) {
				benchBlock(b, c, events, engine.Run)
			})
		}
		b.Run(c.name+"/scalar", func(b *testing.B) {
			var src rng.Source
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for rep := range blockBenchWindow {
					src.ReseedStream(1, uint64(rep))
					if _, err := Run(c.params, c.initial, &src, RunOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events*int64(b.N)), "ns/event")
		})
	}
}

// maxKernelGoRoundRatio bounds the cost per event of the dispatching
// engine and of each round kernel as a multiple of the Go round's on
// sd-1024-gap12, twice the largest ratio recorded in five runs on a
// 2-core Sapphire Rapids VM (0.08–0.12 for rounds512, 0.19–0.25 for
// roundsAVX2; the Go round's own cost swings most). A ratio of two
// engines timed in one process holds across machines, where absolute times
// do not, and an engine that silently ran the Go round alone would read
// about 1.
const maxKernelGoRoundRatio = 0.5

// TestBlockKernelsCheaperThanGoRound gates the dispatching engine,
// Block.Run, and every narrower round kernel the CPU has, each as the
// widest, against the Go round alone on sd-1024-gap12. Run dispatches to
// the widest kernel, so it is timed in that kernel's place, and a Run that
// fell back to the Go round fails. Each engine's ns/event is the minimum
// of three testutil.NsPer windows, alternating between the engines so that
// a slow spell of the machine weighs on all of them. It logs every ratio.
func TestBlockKernelsCheaperThanGoRound(t *testing.T) {
	if testing.Short() {
		t.Skip("times every engine for a few seconds; skipped with -short")
	}
	engines := Engines()
	if len(engines) == 1 {
		t.Skip("no round kernel runs on this CPU")
	}
	names := []string{"block (" + engines[0].Name + ")"}
	runs := []func(*Block, uint64, int, int, []bool) error{(*Block).Run}
	for _, e := range engines[1:] {
		names = append(names, e.Name)
		runs = append(runs, e.Run)
	}
	events := sdGap12.events(t)
	ns := make([]float64, len(runs))
	for i := range ns {
		ns[i] = math.Inf(1)
	}
	for range 3 {
		for i, run := range runs {
			ns[i] = min(ns[i], testutil.NsPer(blockWindows(t, sdGap12, events, run)))
		}
	}
	goRound := ns[len(ns)-1] // Engines lists the Go round alone last
	for i, name := range names[:len(names)-1] {
		ratio := ns[i] / goRound
		t.Logf("%s %.2f ns/event, Go round %.2f ns/event: %.2fx the Go round, bound %.2fx",
			name, ns[i], goRound, ratio, maxKernelGoRoundRatio)
		if ratio > maxKernelGoRoundRatio {
			t.Errorf("%s costs %.2fx the Go round per event, bound %.2fx", name, ratio, maxKernelGoRoundRatio)
		}
	}
}

// maxGammaZeroRatio bounds each round kernel's cost per event with both γ
// +0 as a multiple of its cost with γ = 1, on full calls at (10⁶, 10⁶).
// Sixteen runs on a 2-core Sapphire Rapids VM read 0.80–0.82 for
// rounds512 and 0.81–0.85 for roundsAVX2; kernels that always computed the
// intraspecific terms read 1.00.
const maxGammaZeroRatio = 0.9

// TestKernelGammaZeroCheaper gates the γ = 0 path of every round kernel
// the CPU has: NSD calls at (10⁶, 10⁶) with γ = 0 against the same calls
// with γ = 1. Each call seeds every lane and fires KernelRounds events in
// each (TestKernelCall pins that count), and each side's cost is its
// fastest call in testutil.FastestNsPer, which alternates the two call by
// call. The minimum of three NsPer windows per side, as the other gates
// take it, read roundsAVX2's ratio anywhere from 0.68 to 0.96 on a 2-core
// Sapphire Rapids VM, whose AVX2 windows swing by ±20%. The test logs both
// costs and their ratio.
func TestKernelGammaZeroCheaper(t *testing.T) {
	if testing.Short() {
		t.Skip("times every round kernel for about 1.5 s; skipped with -short")
	}
	initial := State{X0: 1_000_000, X1: 1_000_000}
	for _, e := range Engines() {
		if e.Group == 0 {
			continue
		}
		calls := func(gamma float64) func() int64 {
			blk, err := NewBlock(Neutral(1, 1, 1, gamma, NonSelfDestructive), initial, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			return func() int64 {
				for li := range BlockLanes {
					blk.start(li, 1, li, 0)
				}
				e.call(blk, BlockLanes/e.Group)
				return BlockLanes * kernelRounds
			}
		}
		ns := testutil.FastestNsPer(calls(0), calls(1))
		ratio := ns[0] / ns[1]
		t.Logf("%s: γ = 0 %.2f ns/event, γ = 1 %.2f ns/event: %.2fx, bound %.2fx", e.Name, ns[0], ns[1], ratio, maxGammaZeroRatio)
		if ratio > maxGammaZeroRatio {
			t.Errorf("%s costs %.2fx as much per event with γ = 0 as with γ = 1, bound %.2fx", e.Name, ratio, maxGammaZeroRatio)
		}
	}
}
