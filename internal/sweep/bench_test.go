package sweep_test

import (
	"testing"

	"lvmajority/internal/consensus"
	"lvmajority/internal/lv"
	"lvmajority/internal/sweep"
)

// benchOptions is the shared Ψ(n) sweep configuration: the Table-1 SD
// protocol on a small grid, sized so the CI bench-smoke step finishes in
// seconds while still exercising every engine mechanism.
func benchOptions() sweep.Options {
	return sweep.Options{
		Grid:   []int{64, 128, 256},
		Trials: 400,
		Seed:   13,
	}
}

func benchProtocol() consensus.Protocol {
	return consensus.LVProtocol{
		Params: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive),
		Label:  "lv-sd",
	}
}

func runSweep(b *testing.B, opts sweep.Options) {
	b.Helper()
	p := benchProtocol()
	var probes, fresh int
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(p, opts)
		if err != nil {
			b.Fatal(err)
		}
		probes = res.Probes
		fresh = res.EstimatorCalls
	}
	b.ReportMetric(float64(probes), "probes/op")
	b.ReportMetric(float64(fresh), "fresh-probes/op")
}

// BenchmarkThresholdSweep compares the three sweep regimes on the same
// curve: cold search per n, warm-started brackets, and full cache replay.
func BenchmarkThresholdSweep(b *testing.B) {
	b.Run("Cold", func(b *testing.B) {
		opts := benchOptions()
		opts.Cold = true
		runSweep(b, opts)
	})
	b.Run("Warm", func(b *testing.B) {
		runSweep(b, benchOptions())
	})
	b.Run("CacheHit", func(b *testing.B) {
		opts := benchOptions()
		opts.Cache = sweep.NewCache()
		if _, err := sweep.Run(benchProtocol(), opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		runSweep(b, opts)
	})
}
