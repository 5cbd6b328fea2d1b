package protocols

import (
	"fmt"
	"math"
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
// tick) against the compiled per-event oracle, the batch null-skipping
// loop and the lockstep block engine on the paper's 3-state
// approximate-majority baseline (experiment E-BASE) at n = 10⁴.
func BenchmarkPopulationKernel(b *testing.B) {
	b.Run("old", func(b *testing.B) {
		p := NewThreeStateAM()
		benchKernel(b, func(n, delta int, src *rng.Source) (bool, int, error) {
			return historicalTrial(p, n, delta, src)
		})
	})
	b.Run("perevent", func(b *testing.B) {
		p := NewThreeStateAM()
		benchKernel(b, func(n, delta int, src *rng.Source) (bool, int, error) {
			return perEventTrial(p, n, delta, src)
		})
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
	e, err := NewThreeStateAM().newLockstep(10_000, 400, lanes)
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

// maxLockstepBatchRatio bounds the lockstep engine's cost per simulated
// interaction as a multiple of the batch kernel's on the same workload:
// the ratio recorded when the engine landed, 8.672/13.07 ns/event, plus
// 25%. A ratio of two engines timed in one process holds across machines,
// where absolute times do not.
const maxLockstepBatchRatio = 0.829

// TestLockstepCheaperThanBatch gates the lockstep engine against the batch
// kernel on BenchmarkPopulationKernel's workload, n = 10⁴ and δ = 400.
// Each engine's ns/event is the minimum of three testing.Benchmark runs,
// alternating between the engines so that a slow spell of the machine
// weighs on both. It logs which tick kernel the dispatching engine ran.
func TestLockstepCheaperThanBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("times both engines for several seconds; skipped with -short")
	}
	nsPerEvent := func(name string, bench func(b *testing.B)) float64 {
		ns, ok := testing.Benchmark(bench).Extra["ns/event"]
		if !ok || ns <= 0 {
			t.Fatalf("%s benchmark failed or reported no ns/event", name)
		}
		return ns
	}
	lockstep, batch := math.Inf(1), math.Inf(1)
	for range 3 {
		batch = min(batch, nsPerEvent("batch", func(b *testing.B) {
			benchKernel(b, NewThreeStateAM().run)
		}))
		lockstep = min(lockstep, nsPerEvent("lockstep", func(b *testing.B) {
			benchLockstep(b, DefaultLockstepLanes)
		}))
	}
	e, err := NewThreeStateAM().newLockstep(10_000, 400, DefaultLockstepLanes)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.runBlock(1, 0, DefaultLockstepLanes, make([]bool, DefaultLockstepLanes)); err != nil {
		t.Fatal(err)
	}
	kernel := "no tick kernel"
	if e.kernelCalls > 0 {
		kernel, _ = tickKernel(e.ran)
	}
	ratio := lockstep / batch
	t.Logf("lockstep (%s) %.2f ns/event, batch %.2f ns/event: %.2fx batch, bound %.3fx",
		kernel, lockstep, batch, ratio, maxLockstepBatchRatio)
	if ratio > maxLockstepBatchRatio {
		t.Errorf("lockstep costs %.2fx batch per interaction, bound %.3fx", ratio, maxLockstepBatchRatio)
	}
}

// BenchmarkLockstepLanes prices the lane width DefaultLockstepLanes fixes:
// ILP across per-lane RNG chains saturates well below the maximum width,
// while wider blocks retire stragglers more smoothly.
func BenchmarkLockstepLanes(b *testing.B) {
	for _, lanes := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("R%d", lanes), func(b *testing.B) {
			benchLockstep(b, lanes)
		})
	}
}

// BenchmarkLockstepBlock is the lockstep engine's kernel rung: one op is a
// block of DefaultLockstepLanes trials, run on the dispatching engine
// (block: the widest tick kernel the CPU has, where it fits), at each
// level the CPU runs (avx512 and avx2, each tick kernel alone, printed only
// where the CPU has it; portable, the Go rounds alone) and as scalar
// batch-kernel trials (batch), in ns per simulated interaction and µs per
// trial. Every engine simulates the same interactions on a stream, so the
// counts come from the engine's own tick accounting. The 3-state
// approximate majority is E-BASE's baseline.
func BenchmarkLockstepBlock(b *testing.B) {
	const lanes = DefaultLockstepLanes
	for _, c := range []struct {
		name     string
		n, delta int
	}{
		{"am-10000-gap400", 10_000, 400},
		{"am-1024-gap98", 1024, 98},
		{"am-256-gap46", 256, 46},
	} {
		report := func(b *testing.B, events int64) {
			if events == 0 {
				b.Fatal("no interactions simulated")
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(events), "ns/event")
			b.ReportMetric(ns/1e3/float64(b.N*lanes), "us/trial")
		}
		engines := []lockstepPath{{"block", cpufeat.Widest()}}
		for _, k := range cpufeat.Levels() {
			engines = append(engines, lockstepPath{k.String(), k})
		}
		for _, engine := range engines {
			b.Run(c.name+"/"+engine.name, func(b *testing.B) {
				e, err := NewThreeStateAM().newLockstep(c.n, c.delta, lanes)
				if err != nil {
					b.Fatal(err)
				}
				wins := make([]bool, lanes)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := e.run(1, i*lanes, (i+1)*lanes, wins, engine.k); err != nil {
						b.Fatal(err)
					}
				}
				report(b, e.ticks)
			})
		}
		b.Run(c.name+"/batch", func(b *testing.B) {
			p := NewThreeStateAM()
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
