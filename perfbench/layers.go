package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"lvmajority/internal/consensus"
	"lvmajority/internal/lv"
	"lvmajority/internal/protocols"
	"lvmajority/internal/rng"
	"lvmajority/internal/scenario"
	"lvmajority/internal/stats"
	"lvmajority/internal/sweep"
)

// layerState is the (n, δ) pair and probe seed the serial layer calls run
// at for one model.
type layerState struct {
	N, Delta int
	Seed     uint64
	Budget   int
	// Recorded reports that Delta is the traced pass's Ψ(N); on the batch
	// workloads Seed is that probe's too. Otherwise the state is the one
	// found while sizing the benchmark.
	Recorded bool
}

// The models the layer calls measure, by registry name.
const (
	modelSD  = "lv-sd"
	modelNSD = "lv-nsd"
	modelAM  = "3-state-am"
)

// layerN is the population size of the layer calls.
func layerN(cfg config) int {
	if cfg.tiny {
		return 128
	}
	return 1024
}

// defaultStates are the near-threshold states at layerN found while sizing
// the benchmark, used for models the traced pass does not probe.
func defaultStates(cfg config) map[string]layerState {
	n := layerN(cfg)
	deltas := map[string]int{modelSD: 12, modelNSD: 100, modelAM: 102}
	if cfg.tiny {
		deltas = map[string]int{modelSD: 8, modelNSD: 34, modelAM: 34}
	}
	out := map[string]layerState{}
	for i, m := range []string{modelSD, modelNSD, modelAM} {
		out[m] = layerState{N: n, Delta: deltas[m], Seed: mix64(cfg.seed + uint64(i)), Budget: scenario.DefaultSweepTrials(n)}
	}
	return out
}

// statesFromTrace picks, for every model the traced pass swept, the probe at
// layerN whose gap is that point's threshold Ψ(n).
func statesFromTrace(cfg config, tr *tracer) map[string]layerState {
	states := defaultStates(cfg)
	n := float64(layerN(cfg))
	for _, pt := range tr.named("point") {
		if pt.Attrs["n"] != n {
			continue
		}
		for _, pr := range tr.children(pt.ID) {
			if pr.Name == "probe" && pr.Attrs["delta"] == pt.Attrs["threshold"] {
				states[pr.Label] = layerState{
					N: int(n), Delta: int(pr.Attrs["delta"]), Seed: pr.Seed,
					Budget: int(pr.Attrs["budget"]), Recorded: true,
				}
			}
		}
	}
	return states
}

// Sizes of the serial layer calls. The LV trial counts are fixed, so
// lv.events_per_trial is an exact count for a given state and seed.
const (
	lvTrials     = 256
	windowTrials = 200 // one early-stop batch
	poolTrials   = 1000
	reps         = 15
)

// layerCalls runs serial calls into each layer's public functions at the
// given states and records the per-layer metrics. Serial calls run with
// GOMAXPROCS=1 so the scheduler does not decide the numbers; only
// mc.parallel_eff uses every CPU. cacheSize is the probe-cache size the
// sweep.cache_* calls use (0: the size the workload's own runs reach).
func layerCalls(ctx context.Context, cfg config, out *outcome, states map[string]layerState, cacheSize int) error {
	start := time.Now()
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	out.report["layer_states"] = states

	sd, err := scenario.ProtocolByName(modelSD)
	if err != nil {
		return err
	}
	nsd, err := scenario.ProtocolByName(modelNSD)
	if err != nil {
		return err
	}

	// lv: ns per event and events per trial on identical streams.
	var lvNS, events, trials float64
	var adapter []float64
	perModel := map[string]float64{}
	for _, m := range []struct {
		name string
		p    consensus.Protocol
	}{{modelSD, sd}, {modelNSD, nsd}} {
		if err := ctx.Err(); err != nil {
			return err
		}
		st := states[m.name]
		lp := m.p.(consensus.LVProtocol)
		a, b, err := consensus.SplitInitial(st.N, st.Delta)
		if err != nil {
			return err
		}
		var src rng.Source
		var modelNS, modelEvents float64
		for i := 0; i < lvTrials; i++ {
			// Alternate which call goes first so drift cancels in the
			// paired difference.
			var tRun, tTrial time.Duration
			for k := 0; k < 2; k++ {
				src.ReseedStream(st.Seed, uint64(i))
				t0 := time.Now()
				if (k == 0) == (i%2 == 0) {
					o, err := lv.Run(lp.Params, lv.State{X0: a, X1: b}, &src, lv.RunOptions{MaxSteps: lp.MaxSteps})
					tRun = time.Since(t0)
					if err != nil {
						return err
					}
					modelEvents += float64(o.Steps)
				} else {
					if _, err := lp.Trial(st.N, st.Delta, &src); err != nil {
						return err
					}
					tTrial = time.Since(t0)
				}
			}
			modelNS += float64(tRun)
			adapter = append(adapter, float64(tTrial-tRun))
		}
		perModel[m.name+"_ns_per_event"] = modelNS / modelEvents
		perModel[m.name+"_events_per_trial"] = modelEvents / lvTrials
		lvNS += modelNS
		events += modelEvents
		trials += lvTrials
	}
	out.metrics["lv.ns_per_event"] = lvNS / events
	out.metrics["lv.events_per_trial"] = events / trials
	out.metrics["consensus.adapter_ns_per_trial"] = quantile(adapter, 0.5)
	out.report["lv_per_model"] = perModel

	// mc scalar pool: CountWins at one worker against a serial Trial loop
	// over the same window of streams.
	st := states[modelSD]
	pool, err := pairedPerTrial(reps, poolTrials,
		func() error {
			_, err := consensus.CountWins(sd, st.N, st.Delta, 0, poolTrials, consensus.EstimateOptions{Workers: 1, Seed: st.Seed})
			return err
		},
		func() error {
			var src rng.Source
			for i := 0; i < poolTrials; i++ {
				src.ReseedStream(st.Seed, uint64(i))
				if _, err := sd.Trial(st.N, st.Delta, &src); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		return err
	}
	out.metrics["mc.pool_ns_per_trial"] = pool

	// Population protocols at 3-state-am's state: the bare lockstep block
	// function, the batch kernel's Trial, and the block pool over the
	// lockstep protocol.
	am := states[modelAM]
	lock := protocols.NewThreeStateAM()
	lock.Kernel = protocols.KernelLockstep
	lanes := lock.TrialBlockLanes()
	amWindow := 4 * lanes
	block, err := lock.NewTrialBlock(am.N, am.Delta)
	if err != nil {
		return err
	}
	wins := make([]bool, lanes)
	bare := func() error {
		for lo := 0; lo < amWindow; lo += lanes {
			if err := block(am.Seed, lo, lo+lanes, wins); err != nil {
				return err
			}
		}
		return nil
	}
	var bareNS []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := bare(); err != nil {
			return err
		}
		bareNS = append(bareNS, float64(time.Since(t0))/float64(amWindow))
	}
	out.metrics["protocols.lockstep_us_per_trial"] = quantile(bareNS, 0.5) / 1e3
	blockPool, err := pairedPerTrial(reps, amWindow,
		func() error {
			_, err := consensus.CountWins(lock, am.N, am.Delta, 0, amWindow, consensus.EstimateOptions{Workers: 1, Seed: am.Seed})
			return err
		}, bare)
	if err != nil {
		return err
	}
	out.metrics["mc.block_pool_ns_per_trial"] = blockPool

	batch := protocols.NewThreeStateAM()
	batch.Kernel = protocols.KernelBatch
	var batchNS []float64
	for r := 0; r < reps; r++ {
		var src rng.Source
		t0 := time.Now()
		for i := 0; i < windowTrials; i++ {
			src.ReseedStream(am.Seed, uint64(i))
			if _, err := batch.Trial(am.N, am.Delta, &src); err != nil {
				return err
			}
		}
		batchNS = append(batchNS, float64(time.Since(t0))/windowTrials)
	}
	out.metrics["protocols.batch_us_per_trial"] = quantile(batchNS, 0.5) / 1e3

	// Probe cache at the size the workload reaches.
	if cacheSize <= 0 {
		cacheSize = 64
	}
	get, put, err := cacheCosts(cacheSize)
	if err != nil {
		return err
	}
	out.metrics["sweep.cache_get_ns"] = get
	out.metrics["sweep.cache_put_ns"] = put
	out.report["cache_size"] = cacheSize

	// Parallel efficiency of CountWins on the workload's dominant model.
	runtime.GOMAXPROCS(procs)
	model, p := modelSD, sd
	switch cfg.workload {
	case "lv-curves":
		model, p = modelNSD, nsd
	case "am-lockstep":
		model, p = modelAM, lock
	}
	st = states[model]
	full, err := parallelEff(p, st, st.Budget)
	if err != nil {
		return err
	}
	small, err := parallelEff(p, st, windowTrials)
	if err != nil {
		return err
	}
	out.metrics["mc.parallel_eff"] = full
	out.metrics["mc.parallel_eff_batch"] = small
	out.report["parallel_eff_model"] = model
	out.report["layer_calls_s"] = time.Since(start).Seconds()
	fmt.Fprintf(os.Stderr, "perfbench: layer calls took %.1fs\n", time.Since(start).Seconds())
	return nil
}

// pairedPerTrial times withLayer and without back to back reps times, and
// returns the median of the paired differences per trial in nanoseconds.
// Both sides run the same trials on the same streams, so a difference is
// the layer's own cost; pairing adjacent timings cancels the machine's
// speed, which drifts on a scale of seconds. A value within noise of 0
// means the layer costs less than the calls resolve.
func pairedPerTrial(reps, trials int, withLayer, without func() error) (float64, error) {
	var diffs []float64
	for r := 0; r < reps; r++ {
		var d [2]time.Duration
		for k := 0; k < 2; k++ {
			side, f := (k+r)%2, withLayer // alternate which side goes first
			if side == 1 {
				f = without
			}
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			d[side] = time.Since(t0)
		}
		diffs = append(diffs, float64(d[0]-d[1])/float64(trials))
	}
	return quantile(diffs, 0.5), nil
}

// parallelEff is CountWins' speed-up at NumCPU workers over one worker on
// the window [0, window), divided by NumCPU.
func parallelEff(p consensus.Protocol, st layerState, window int) (float64, error) {
	cpus := runtime.NumCPU()
	var one, all []float64
	for r := 0; r < 3; r++ {
		for _, w := range []int{1, cpus} {
			t0 := time.Now()
			if _, err := consensus.CountWins(p, st.N, st.Delta, 0, window, consensus.EstimateOptions{Workers: w, Seed: st.Seed}); err != nil {
				return 0, err
			}
			if w == 1 {
				one = append(one, time.Since(t0).Seconds())
			} else {
				all = append(all, time.Since(t0).Seconds())
			}
		}
	}
	return quantile(one, 0.5) / quantile(all, 0.5) / float64(cpus), nil
}

// cacheCosts times sweep.Cache Get and Put on a cache holding size probes.
func cacheCosts(size int) (getNS, putNS float64, err error) {
	key := func(i int) sweep.Key {
		return sweep.Key{Protocol: consensus.LVProtocol{Params: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)}.CacheKey(),
			N: 256 << (i % 5), Delta: 2 * i, Seed: uint64(i), Trials: 2000, Target: 0.999, EarlyStop: true}
	}
	est := stats.BernoulliEstimate{Successes: 1999, Trials: 2000, Lo: 0.99, Hi: 1}
	keys := make([]sweep.Key, 2*size)
	for i := range keys {
		keys[i] = key(i)
	}
	const ops = 200_000
	var putTime time.Duration
	puts := 0
	var c *sweep.Cache
	for puts < ops {
		c = sweep.NewCache()
		for _, k := range keys[:size] {
			c.Put(k, est)
		}
		t0 := time.Now()
		for _, k := range keys[size:] {
			c.Put(k, est)
		}
		putTime += time.Since(t0)
		puts += size
	}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		if _, ok := c.Get(keys[i%size]); !ok {
			return 0, 0, fmt.Errorf("probe cache lost key %d", i%size)
		}
	}
	return float64(time.Since(t0)) / ops, float64(putTime) / float64(puts), nil
}
