package experiment

import (
	"fmt"
	"math"

	"lvmajority/internal/consensus"
	"lvmajority/internal/exact"
	"lvmajority/internal/lv"
	"lvmajority/internal/mc"
	"lvmajority/internal/rng"
	"lvmajority/internal/stats"
)

// runExactSolver (E-EXACT) cross-validates three independent computations of
// ρ(a, b): the paper's closed forms (Theorems 20/23), the exact grid solver
// (first-step recurrence, Eq. 8), and Monte-Carlo simulation. It also
// quantifies the double-extinction boundary effect that separates the
// strict reading of Theorem 20 from the closed form.
func runExactSolver(cfg Config) ([]*Table, error) {
	trials := 20000
	if cfg.Full {
		trials = 100000
	}
	gridMax := 80
	if cfg.Full {
		gridMax = 160
	}

	sd := lv.Params{
		Beta: 1, Delta: 1,
		Alpha:       [2]float64{0.5, 0.5},
		Gamma:       [2]float64{1, 1},
		Competition: lv.SelfDestructive,
	}
	nsd := lv.Params{
		Beta: 1, Delta: 1,
		Alpha:       [2]float64{0.5, 0.5},
		Gamma:       [2]float64{1, 1},
		Competition: lv.NonSelfDestructive,
	}

	tbl := &Table{
		Title: "E-EXACT: closed form vs grid solver vs Monte Carlo",
		Caption: "Theorems 20/23 closed form a/(a+b) vs the Eq. (8) recurrence solved on a truncated grid " +
			"(fair tiebreak and strict scoring) vs simulation (strict). SD rows show the (1,1)->(0,0) " +
			"boundary effect: strict < closed form; grid(strict) matches simulation to solver precision.",
		Columns: []string{"model", "a", "b", "a/(a+b)", "grid rho (tie 1/2)", "grid rho (strict)", "MC rho (strict)", "MC CI"},
	}

	for _, tc := range []struct {
		name   string
		params lv.Params
	}{
		{"SD alpha=gamma", sd},
		{"NSD gamma=2alpha", nsd},
	} {
		fair, err := exact.Solve(tc.params, exact.Options{Max: gridMax, TieValue: 0.5})
		if err != nil {
			return nil, err
		}
		strictSol, err := exact.Solve(tc.params, exact.Options{Max: gridMax, TieValue: 0})
		if err != nil {
			return nil, err
		}
		for _, st := range []lv.State{{X0: 3, X1: 1}, {X0: 10, X1: 5}, {X0: 24, X1: 8}} {
			closed := lv.ConsensusProbabilityExact(st)
			fairV, err := fair.Rho(st.X0, st.X1)
			if err != nil {
				return nil, err
			}
			strictV, err := strictSol.Rho(st.X0, st.X1)
			if err != nil {
				return nil, err
			}
			est, err := mc.EstimateBernoulli(mc.BernoulliOptions{
				Options: mc.Options{
					Replicates: trials,
					Workers:    cfg.workers(),
					Interrupt:  cfg.Interrupt,
					Progress:   cfg.Progress,
					Seed:       cfg.Seed ^ uint64(st.X0*131+st.X1) ^ uint64(tc.params.Competition),
				},
				Z: stats.Z999,
			}, mc.Trials(func(_ int, src *rng.Source) (bool, error) {
				out, err := lv.Run(tc.params, st, src, lv.RunOptions{})
				if err != nil {
					return false, err
				}
				return out.Consensus && out.MajorityWon, nil
			}))
			if err != nil {
				return nil, err
			}
			tbl.AddRow(tc.name, st.X0, st.X1, closed, fairV, strictV, est.P(),
				fmt.Sprintf("[%.4f, %.4f]", est.Lo, est.Hi))
			cfg.logf("E-EXACT %s (%d,%d): closed=%.4f fair=%.4f strict=%.4f mc=%.4f",
				tc.name, st.X0, st.X1, closed, fairV, strictV, est.P())
		}
	}
	return []*Table{tbl}, nil
}

// runNoiseDecomposition (E-NOISE) measures the two components of the
// demographic noise F = F_ind + F_comp introduced in §1.5. The paper's core
// mechanism: under SD competition F_comp ≡ 0 and F_ind is polylogarithmic
// (driving the polylog threshold), while under NSD competition F_comp
// behaves like a √n-scale random walk (driving the √n threshold).
func runNoiseDecomposition(cfg Config) ([]*Table, error) {
	trials := 800
	if cfg.Full {
		trials = 6000
	}
	tbl := &Table{
		Title: "E-NOISE: demographic noise decomposition F = F_ind + F_comp (Section 1.5)",
		Caption: "Started from a tie (a = b = n/2). Under SD, competitive events cannot move the gap: sd(F_comp) = 0 " +
			"and the individual-event noise is polylog. Under NSD, F_comp is a sqrt(n)-scale random walk.",
		Columns: []string{"model", "n", "sd(F_ind)", "sd(F_ind)/log2 n", "sd(F_comp)", "sd(F_comp)/sqrt(n)"},
	}
	for _, comp := range []lv.Competition{lv.SelfDestructive, lv.NonSelfDestructive} {
		params := lv.Neutral(1, 1, 1, 0, comp)
		for _, n := range nGrid(cfg) {
			initial := lv.State{X0: n / 2, X1: n - n/2}
			noise, err := mc.Run(mc.Options{
				Replicates: trials,
				Workers:    cfg.workers(),
				Interrupt:  cfg.Interrupt,
				Progress:   cfg.Progress,
				Seed:       cfg.Seed ^ 0xabcdef ^ uint64(n) ^ uint64(comp)<<48,
			}, func(_ int, src *rng.Source) ([2]float64, error) {
				out, err := lv.Run(params, initial, src, lv.RunOptions{})
				if err != nil {
					return [2]float64{}, err
				}
				return [2]float64{float64(out.FInd), float64(out.FComp)}, nil
			})
			if err != nil {
				return nil, err
			}
			var ind, compn stats.Running
			for _, f := range noise {
				ind.Add(f[0])
				compn.Add(f[1])
			}
			fn := float64(n)
			tbl.AddRow(comp.String(), n,
				ind.StdDev(), ind.StdDev()/math.Log2(fn),
				compn.StdDev(), compn.StdDev()/math.Sqrt(fn))
			cfg.logf("E-NOISE %v n=%d sd(F_ind)=%.2f sd(F_comp)=%.2f", comp, n, ind.StdDev(), compn.StdDev())
		}
	}
	return []*Table{tbl}, nil
}

// runGammaTransition (E-GAMMA) explores the open problem of §1.6: with the
// interspecific rate α fixed, at which intraspecific strength γ does the
// majority-consensus threshold leave the polylogarithmic regime? The paper
// pins the endpoints — O(log² n) at γ = 0 and n−1 at γ = α (Theorems 14 and
// 20) — and asks about the transition. We sweep γ/α at fixed n and measure
// ρ at a polylog-scale gap and at a √n-scale gap.
func runGammaTransition(cfg Config) ([]*Table, error) {
	n := 1024
	trials := 3000
	if cfg.Full {
		n = 4096
		trials = 12000
	}
	logGap := consensus.MatchParity(n, int(consensus.ShapeLog2(float64(n))/4))
	sqrtGap := consensus.MatchParity(n, int(3*consensus.ShapeSqrt(float64(n))))

	tbl := &Table{
		Title: fmt.Sprintf("E-GAMMA: threshold transition as intraspecific competition grows (SD, n=%d)", n),
		Caption: fmt.Sprintf("Open problem of Section 1.6. alpha (total interspecific constant) = 1; gamma/alpha swept. "+
			"rho measured at a polylog gap (%d ~ log2(n)^2/4) and a sqrt-scale gap (%d ~ 3*sqrt(n)). Endpoints are "+
			"pinned by Theorem 14 (gamma=0: polylog suffices) and Theorem 20 (gamma=alpha: rho = a/(a+b)).", logGap, sqrtGap),
		Columns: []string{"gamma/alpha", "rho at polylog gap", "rho at sqrt gap", "a/(a+b) at sqrt gap"},
	}

	for _, ratio := range []float64{0, 0.01, 0.05, 0.1, 0.25, 0.5, 1} {
		params := lv.Params{
			Beta: 1, Delta: 1,
			Alpha:       [2]float64{0.5, 0.5}, // total interspecific constant alpha = 1
			Gamma:       [2]float64{ratio, ratio},
			Competition: lv.SelfDestructive,
		}
		p := consensus.LVProtocol{Params: params}
		estLog, err := consensus.EstimateWinProbability(p, n, logGap, consensus.EstimateOptions{
			Trials: trials, Workers: cfg.workers(), Interrupt: cfg.Interrupt, Progress: cfg.Progress,
			Seed: cfg.Seed ^ uint64(math.Float64bits(ratio)),
		})
		if err != nil {
			return nil, err
		}
		estSqrt, err := consensus.EstimateWinProbability(p, n, sqrtGap, consensus.EstimateOptions{
			Trials: trials, Workers: cfg.workers(), Interrupt: cfg.Interrupt, Progress: cfg.Progress,
			Seed: cfg.Seed ^ uint64(math.Float64bits(ratio)) ^ 0xffff,
		})
		if err != nil {
			return nil, err
		}
		a := (n + sqrtGap) / 2
		tbl.AddRow(ratio, estLog.P(), estSqrt.P(), float64(a)/float64(n))
		cfg.logf("E-GAMMA gamma/alpha=%.2f rho(log)=%.4f rho(sqrt)=%.4f", ratio, estLog.P(), estSqrt.P())
	}
	return []*Table{tbl}, nil
}
