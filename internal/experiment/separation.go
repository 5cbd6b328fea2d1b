package experiment

import (
	"fmt"
	"math"

	"lvmajority/internal/consensus"
	"lvmajority/internal/lv"
	"lvmajority/internal/mc"
	"lvmajority/internal/ode"
	"lvmajority/internal/rng"
	"lvmajority/internal/stats"
	"lvmajority/internal/sweep"
)

// runSeparation reproduces the headline comparison of §1.4: at a fixed
// population size, the success probability of the self-destructive protocol
// reaches the 1 − 1/n bar at a gap orders of magnitude below the
// non-self-destructive protocol's.
func runSeparation(cfg Config) ([]*Table, error) {
	n := 1024
	trials := 3000
	if cfg.Full {
		n = 4096
		trials = 20000
	}
	target := 1 - 1/float64(n)

	tbl := &Table{
		Title: fmt.Sprintf("E-SEP: rho vs initial gap at n=%d (beta=delta=1, alpha0=alpha1=1, gamma=0)", n),
		Caption: fmt.Sprintf("Success probability as the gap grows; target bar is 1-1/n = %.6f. "+
			"SD crosses at a polylog gap, NSD only near sqrt(n)*polylog.", target),
		Columns: []string{"gap", "rho SD", "rho NSD"},
	}

	sd := consensus.LVProtocol{Params: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)}
	nsd := consensus.LVProtocol{Params: lv.Neutral(1, 1, 1, 0, lv.NonSelfDestructive)}

	crossSD, crossNSD := -1, -1
	for gap := 2; gap <= n/2; gap *= 2 {
		delta := consensus.MatchParity(n, gap)
		estSD, err := consensus.EstimateWinProbability(sd, n, delta, consensus.EstimateOptions{
			Trials: trials, Workers: cfg.workers(), Interrupt: cfg.Interrupt, Progress: cfg.Progress, Seed: cfg.Seed + uint64(gap),
		})
		if err != nil {
			return nil, err
		}
		estNSD, err := consensus.EstimateWinProbability(nsd, n, delta, consensus.EstimateOptions{
			Trials: trials, Workers: cfg.workers(), Interrupt: cfg.Interrupt, Progress: cfg.Progress, Seed: cfg.Seed + uint64(gap) + 1<<20,
		})
		if err != nil {
			return nil, err
		}
		if crossSD < 0 && estSD.P() >= target {
			crossSD = delta
		}
		if crossNSD < 0 && estNSD.P() >= target {
			crossNSD = delta
		}
		tbl.AddRow(delta, estSD.P(), estNSD.P())
		cfg.logf("E-SEP gap=%d: SD=%.4f NSD=%.4f", delta, estSD.P(), estNSD.P())
	}

	summary := &Table{
		Title:   "E-SEP: crossing summary",
		Caption: "First probed gap whose estimate reached the 1-1/n bar (-1: not reached on the probed grid).",
		Columns: []string{"model", "crossing gap", "crossing gap / log2(n)^2", "crossing gap / sqrt(n)"},
	}
	addCross := func(name string, cross int) {
		if cross < 0 {
			summary.AddRow(name, -1, "-", "-")
			return
		}
		summary.AddRow(name, cross,
			float64(cross)/consensus.ShapeLog2(float64(n)),
			float64(cross)/consensus.ShapeSqrt(float64(n)))
	}
	addCross("self-destructive", crossSD)
	addCross("non-self-destructive", crossNSD)
	return []*Table{tbl, summary}, nil
}

// runODEComparison contrasts the deterministic ODE dynamics (Eq. 4), under
// which the initially denser species always wins when α′ > γ′, with the
// stochastic finite-n chain, where a tiny gap gives a win probability near
// 1/2 — the finite-population effect the paper's models capture and the
// deterministic ones cannot.
func runODEComparison(cfg Config) ([]*Table, error) {
	trials := 3000
	if cfg.Full {
		trials = 20000
	}
	sys := ode.LotkaVolterra{R: 0, AlphaPrime: 1, GammaPrime: 0}
	params := lv.Neutral(1, 1, 0.5, 0, lv.SelfDestructive) // alpha'=alpha0+alpha1=1, r=beta-delta=0

	tbl := &Table{
		Title: "E-ODE: deterministic Eq. (4) vs stochastic chain, minimal gap",
		Caption: "Deterministic densities with alpha' > gamma': the larger initial density always wins (winner column). " +
			"The stochastic chain at the same ratio wins only with probability rho (last columns).",
		Columns: []string{"n", "initial (a,b)", "ODE winner", "ODE decision time", "stochastic rho", "CI low", "CI high"},
	}
	for _, n := range []int{64, 256, 1024} {
		a := n/2 + 1
		b := n - a // gap 2 for even n
		res, err := sys.DeterministicWinner(float64(a), float64(b), 1e-9, 1e7)
		if err != nil {
			return nil, err
		}
		est, err := mc.EstimateBernoulli(mc.BernoulliOptions{
			Options: mc.Options{
				Replicates: trials,
				Workers:    cfg.workers(),
				Interrupt:  cfg.Interrupt,
				Progress:   cfg.Progress,
				Seed:       cfg.Seed + uint64(n)*17,
			},
			Z: stats.Z999,
		}, mc.Trials(func(_ int, src *rng.Source) (bool, error) {
			out, err := lv.Run(params, lv.State{X0: a, X1: b}, src, lv.RunOptions{})
			if err != nil {
				return false, err
			}
			return out.Consensus && out.MajorityWon, nil
		}))
		if err != nil {
			return nil, err
		}
		tbl.AddRow(n, fmt.Sprintf("(%d,%d)", a, b), res.Winner, res.T, est.P(), est.Lo, est.Hi)
		cfg.logf("E-ODE n=%d: ODE winner=%d, stochastic rho=%.4f", n, res.Winner, est.P())
	}
	return []*Table{tbl}, nil
}

// runBaselines compares every implemented protocol at one matched population
// size: LV (both competition modes), the Cho and Andaur models, the Condon
// CRNs, and the population protocols.
func runBaselines(cfg Config) ([]*Table, error) {
	n := 256
	trials := 1000
	if cfg.Full {
		n = 1024
		trials = 8000
	}

	tbl := &Table{
		Title:   fmt.Sprintf("E-BASE: empirical thresholds of all protocols at n=%d (target 1-1/n)", n),
		Caption: "Thresholds normalized by the SD (polylog) and NSD (sqrt) reference shapes.",
		Columns: []string{"protocol", "threshold", "thr/log2(n)^2", "thr/sqrt(n)", "probes"},
	}

	protos := baselineProtocols()
	for i, p := range protos {
		seed := cfg.Seed + uint64(i)*1009
		// One-point sweep: no warm chain at a single n, but the probes
		// run the early-stopping estimator and land in the cache.
		swept, err := sweep.Run(p, sweep.Options{
			Grid:      []int{n},
			Trials:    trials,
			Workers:   cfg.workers(),
			Interrupt: cfg.Interrupt,
			Progress:  cfg.Progress,
			Seed:      seed,
			SeedFor:   func(int) uint64 { return seed }, // historical per-protocol seed, independent of n
			Cache:     cfg.Cache,
			Log:       cfg.logf,
		})
		if err != nil {
			return nil, fmt.Errorf("threshold for %s: %w", p.Name(), err)
		}
		res := swept.Points[0]
		if !res.Found {
			tbl.AddRow(p.Name(), "not found", "-", "-", res.Probes)
			continue
		}
		fn := float64(n)
		tbl.AddRow(p.Name(), res.Threshold,
			float64(res.Threshold)/consensus.ShapeLog2(fn),
			float64(res.Threshold)/consensus.ShapeSqrt(fn),
			res.Probes)
		cfg.logf("E-BASE %s: threshold=%d", p.Name(), res.Threshold)
	}
	return []*Table{tbl}, nil
}

// runAsymmetric probes the remark after Theorem 18 ("the minority species
// can be a better competitor", α₀ ≠ α₁). Under NSD competition each
// competitive event kills a majority individual with probability α₁/(α₀+α₁)
// independent of the state, so for α₁ ≠ α₀ the competitive noise Y has a
// *constant drift* (α₁−α₀)/(α₀+α₁) per event and Θ(n) competitive events
// occur. The measurement shows the consequence:
//
//   - majority-favoring or symmetric asymmetry (α₁ ≤ α₀): thresholds stay
//     within the √(n·polylog) regime of Theorem 18;
//   - minority-favoring asymmetry (α₁ > α₀): the empirical threshold grows
//     linearly, ≈ n·(α₁−α₀)/(α₀+α₁) plus a √n-scale fluctuation term —
//     the drift column is then the flat one.
//
// This is a genuine boundary condition on the paper's remark: the Hoeffding
// step in the proof of Theorem 18 bounds Pr[Y ≥ t] around a mean that is
// only non-positive when the majority competes at least as well (the
// E-ASYM record in the generated EXPERIMENTS.md shows the measurement).
func runAsymmetric(cfg Config) ([]*Table, error) {
	trials := 1500
	if cfg.Full {
		trials = 8000
	}
	tbl := &Table{
		Title: "E-ASYM: asymmetric NSD competition (alpha0 fixed = 1, species 0 = majority)",
		Caption: "drift = (alpha1-alpha0)/(alpha0+alpha1) per competitive event. For alpha1 <= alpha0 the " +
			"sqrt-normalized column is flat (Theorem 18 regime); for alpha1 > alpha0 the threshold tracks " +
			"n*drift + O(sqrt(n)) and the (thr - n*drift)/sqrt(n) column is the bounded one.",
		Columns: []string{"alpha1/alpha0", "n", "threshold", "thr/sqrt(n log2 n)", "n*drift", "(thr - n*drift)/sqrt(n)"},
	}
	grid := nGrid(cfg)
	if len(grid) > 3 {
		grid = grid[:3]
	}
	for _, ratio := range []float64{0.5, 1, 2, 4} {
		params := lv.Params{
			Beta: 1, Delta: 1,
			Alpha:       [2]float64{1, ratio},
			Competition: lv.NonSelfDestructive,
		}
		drift := (ratio - 1) / (ratio + 1)
		p := consensus.LVProtocol{Params: params, Label: fmt.Sprintf("NSD ratio %g", ratio)}
		// One warm-started sweep per ratio: the per-ratio curve is
		// monotone in n, so each search seeds its bracket from the
		// previous population size.
		swept, err := sweep.Run(p, sweep.Options{
			Grid:      grid,
			Trials:    trials,
			Workers:   cfg.workers(),
			Interrupt: cfg.Interrupt,
			Progress:  cfg.Progress,
			Seed:      cfg.Seed,
			SeedFor:   func(n int) uint64 { return cfg.Seed + uint64(n) + uint64(math.Float64bits(ratio)) },
			Cache:     cfg.Cache,
			Log:       cfg.logf,
		})
		if err != nil {
			return nil, err
		}
		for _, res := range swept.Points {
			if !res.Found {
				tbl.AddRow(ratio, res.N, "not found", "-", "-", "-")
				continue
			}
			fn := float64(res.N)
			nDrift := fn * drift
			tbl.AddRow(ratio, res.N, res.Threshold,
				float64(res.Threshold)/consensus.ShapeSqrtLog(fn),
				nDrift,
				(float64(res.Threshold)-nDrift)/consensus.ShapeSqrt(fn))
			cfg.logf("E-ASYM ratio=%g n=%d threshold=%d", ratio, res.N, res.Threshold)
		}
	}
	return []*Table{tbl}, nil
}
