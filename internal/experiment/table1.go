package experiment

import (
	"fmt"
	"math"

	"lvmajority/internal/consensus"
	"lvmajority/internal/lv"
	"lvmajority/internal/mc"
	"lvmajority/internal/rng"
	"lvmajority/internal/stats"
	"lvmajority/internal/sweep"
)

// nGrid returns the population-size grid for threshold scaling experiments.
func nGrid(cfg Config) []int {
	if cfg.Full {
		return []int{256, 512, 1024, 2048, 4096, 8192, 16384}
	}
	return []int{256, 512, 1024, 2048, 4096}
}

// trialsFor picks the Monte-Carlo sample size per probed gap. The paper's
// criterion is ρ ≥ 1 − 1/n; resolving a failure probability of 1/n needs a
// sample size of order n, capped to keep runtimes bounded.
func trialsFor(cfg Config, n int) int {
	t := 2 * n
	if t < 1000 {
		t = 1000
	}
	limit := 4000
	if cfg.Full {
		limit = 40000
	}
	if t > limit {
		t = limit
	}
	return t
}

// thresholdCurve computes the threshold curve over the n grid on the sweep
// engine — searches warm-started along the monotone curve, probed with the
// early-stopping estimator, and served from the probe cache when one is
// configured — and returns the curve plus a rendered table.
func thresholdCurve(cfg Config, p consensus.Protocol, title, caption string, shapes map[string]func(float64) float64, shapeOrder []string) ([]consensus.CurvePoint, *Table, error) {
	columns := []string{"n", "target", "threshold"}
	columns = append(columns, shapeOrder...)
	tbl := &Table{Title: title, Caption: caption, Columns: columns}

	swept, err := sweep.Run(p, sweep.Options{
		Grid:      nGrid(cfg),
		TrialsFor: func(n int) int { return trialsFor(cfg, n) },
		Workers:   cfg.workers(),
		Interrupt: cfg.Interrupt,
		Progress:  cfg.Progress,
		Seed:      cfg.Seed, // per-n seed defaults to Seed + n, the historical policy
		Cache:     cfg.Cache,
		Log:       cfg.logf,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("threshold sweep: %w", err)
	}

	var points []consensus.CurvePoint
	for _, res := range swept.Points {
		pt := consensus.CurvePoint{N: res.N, Threshold: res.Threshold, Found: res.Found}
		points = append(points, pt)

		cells := []any{res.N, fmt.Sprintf("%.6f", res.Target)}
		if res.Found {
			cells = append(cells, res.Threshold)
			for _, name := range shapeOrder {
				cells = append(cells, float64(res.Threshold)/shapes[name](float64(res.N)))
			}
		} else {
			cells = append(cells, "not found")
			for range shapeOrder {
				cells = append(cells, "-")
			}
		}
		tbl.AddRow(cells...)
	}
	return points, tbl, nil
}

// fitTable renders the power-law classification of a threshold curve.
func fitTable(points []consensus.CurvePoint, title string) *Table {
	tbl := &Table{
		Title:   title,
		Caption: "Power-law fit threshold ~ C*n^k; k ~ 0 indicates polylog growth, k ~ 0.5 indicates sqrt(n) growth.",
		Columns: []string{"exponent k", "constant C", "R^2"},
	}
	fit, err := consensus.FitCurve(points)
	if err != nil {
		tbl.AddRow("-", "-", fmt.Sprintf("fit failed: %v", err))
		return tbl
	}
	tbl.AddRow(fit.Exponent, fit.Constant, fit.R2)
	return tbl
}

func sdShapes() (map[string]func(float64) float64, []string) {
	return map[string]func(float64) float64{
		"thr/log2(n)^2":    consensus.ShapeLog2,
		"thr/sqrt(log2 n)": func(n float64) float64 { return math.Sqrt(math.Log2(n)) },
		"thr/sqrt(n)":      consensus.ShapeSqrt,
	}, []string{"thr/log2(n)^2", "thr/sqrt(log2 n)", "thr/sqrt(n)"}
}

func nsdShapes() (map[string]func(float64) float64, []string) {
	return map[string]func(float64) float64{
		"thr/sqrt(n)":        consensus.ShapeSqrt,
		"thr/sqrt(n log2 n)": consensus.ShapeSqrtLog,
		"thr/log2(n)^2":      consensus.ShapeLog2,
	}, []string{"thr/sqrt(n)", "thr/sqrt(n log2 n)", "thr/log2(n)^2"}
}

// runTable1SD reproduces Table 1 row 1, self-destructive column: the
// empirical threshold must grow polylogarithmically — between Ω(√log n)
// (Theorem 17) and O(log² n) (Theorem 14).
func runTable1SD(cfg Config) ([]*Table, error) {
	p := consensus.LVProtocol{
		Params: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive),
		Label:  "SD interspecific LV",
	}
	shapes, order := sdShapes()
	points, tbl, err := thresholdCurve(cfg, p,
		"T1-SD: self-destructive interspecific competition (beta=delta=1, alpha0=alpha1=1, gamma=0)",
		"Paper: threshold in [Omega(sqrt(log n)), O(log^2 n)] — thr/log2(n)^2 should be bounded, thr/sqrt(n) should vanish.",
		shapes, order)
	if err != nil {
		return nil, err
	}
	return []*Table{tbl, fitTable(points, "T1-SD: scaling fit")}, nil
}

// runTable1NSD reproduces Table 1 row 1, non-self-destructive column: the
// threshold must grow polynomially — between Ω(√n) (Theorem 19) and
// O(√(n log n)) (Theorem 18).
func runTable1NSD(cfg Config) ([]*Table, error) {
	p := consensus.LVProtocol{
		Params: lv.Neutral(1, 1, 1, 0, lv.NonSelfDestructive),
		Label:  "NSD interspecific LV",
	}
	shapes, order := nsdShapes()
	points, tbl, err := thresholdCurve(cfg, p,
		"T1-NSD: non-self-destructive interspecific competition (beta=delta=1, alpha0=alpha1=1, gamma=0)",
		"Paper: threshold in [Omega(sqrt n), O(sqrt(n log n))] — thr/sqrt(n) should be bounded away from 0, thr/sqrt(n log2 n) bounded above.",
		shapes, order)
	if err != nil {
		return nil, err
	}
	return []*Table{tbl, fitTable(points, "T1-NSD: scaling fit")}, nil
}

// runTable1Both reproduces Table 1 row 2: with both inter- and intraspecific
// competition at the solvable ratios (SD with α = γ, NSD with γ = 2α) the
// majority wins with probability exactly a/(a+b) (Theorems 20 and 23), so
// the threshold is at the edge of the feasible range.
func runTable1Both(cfg Config) ([]*Table, error) {
	trials := 20000
	if cfg.Full {
		trials = 100000
	}
	sd := lv.Params{
		Beta: 1, Delta: 1,
		Alpha:       [2]float64{0.5, 0.5}, // total interspecific constant alpha = 1
		Gamma:       [2]float64{1, 1},     // per-species gamma = 1 = alpha
		Competition: lv.SelfDestructive,
	}
	nsd := lv.Params{
		Beta: 1, Delta: 1,
		Alpha:       [2]float64{0.5, 0.5}, // alpha0+alpha1 = 1
		Gamma:       [2]float64{1, 1},     // gamma0+gamma1 = 2 = 2*(alpha0+alpha1)
		Competition: lv.NonSelfDestructive,
	}

	tbl := &Table{
		Title: "T1-BOTH: inter+intraspecific competition, exact rho = a/(a+b)",
		Caption: "Theorem 20 (SD, alpha=gamma) and Theorem 23 (NSD, gamma=2alpha). " +
			"Tie-adjusted scoring counts SD double extinctions (reached via (1,1)->(0,0)) as half-wins; " +
			"under that scoring the exact solution holds at every state (recorded in EXPERIMENTS.md; see also E-EXACT).",
		Columns: []string{"model", "a", "b", "exact a/(a+b)", "rho (tie-adjusted)", "CI low", "CI high", "rho (strict)"},
	}

	states := []lv.State{
		{X0: 3, X1: 1},
		{X0: 12, X1: 4},
		{X0: 30, X1: 10},
		{X0: 48, X1: 16},
	}
	for _, tc := range []struct {
		name   string
		params lv.Params
	}{
		{"SD alpha=gamma", sd},
		{"NSD gamma=2alpha", nsd},
	} {
		for _, s := range states {
			exact := lv.ConsensusProbabilityExact(s)
			adj, strict, err := estimateBothScorings(cfg, tc.params, s, trials)
			if err != nil {
				return nil, err
			}
			tbl.AddRow(tc.name, s.X0, s.X1, exact, adj.P(), adj.Lo, adj.Hi, strict.P())
			cfg.logf("T1-BOTH %s (%d,%d): exact=%.4f adj=%.4f strict=%.4f", tc.name, s.X0, s.X1, exact, adj.P(), strict.P())
		}
	}

	note := &Table{
		Title:   "T1-BOTH: threshold consequence",
		Caption: "rho = a/(a+b) implies rho >= 1-1/n only when b = 1, i.e. the majority consensus threshold is at the edge of the feasible range (n-2 on our grid; the paper states n-1 with its gap convention).",
		Columns: []string{"n", "needed minority b", "needed gap"},
	}
	for _, n := range []int{64, 256, 1024} {
		note.AddRow(n, 1, n-2)
	}
	return []*Table{tbl, note}, nil
}

// estimateBothScorings estimates the majority-win probability under both
// tie scorings using common per-trial streams, replicated on the mc pool.
func estimateBothScorings(cfg Config, params lv.Params, initial lv.State, trials int) (adjusted, strict stats.BernoulliEstimate, err error) {
	type scoring struct {
		majorityWon bool
		tie         bool
	}
	outs, err := mc.Run(mc.Options{
		Replicates: trials,
		Workers:    cfg.workers(),
		Interrupt:  cfg.Interrupt,
		Progress:   cfg.Progress,
		Seed:       cfg.Seed ^ uint64(initial.X0*1000003+initial.X1),
	}, func(_ int, src *rng.Source) (scoring, error) {
		out, err := lv.Run(params, initial, src, lv.RunOptions{})
		if err != nil {
			return scoring{}, err
		}
		if !out.Consensus {
			return scoring{}, fmt.Errorf("no consensus from %+v", initial)
		}
		return scoring{majorityWon: out.MajorityWon, tie: out.Winner == -1}, nil
	})
	if err != nil {
		return adjusted, strict, err
	}
	winHalves := 0
	strictWins := 0
	for _, s := range outs {
		switch {
		case s.majorityWon:
			winHalves += 2
			strictWins++
		case s.tie:
			winHalves++
		}
	}
	adjusted, err = stats.WilsonInterval(winHalves, 2*trials, stats.Z999)
	if err != nil {
		return adjusted, strict, err
	}
	strict, err = stats.WilsonInterval(strictWins, trials, stats.Z999)
	return adjusted, strict, err
}

// runTable1Intra reproduces Table 1 row 3: with intraspecific competition
// only (α = 0, γ > 0), the chain fails to reach majority consensus with at
// least constant probability for every gap (Theorem 25) — no threshold
// exists.
func runTable1Intra(cfg Config) ([]*Table, error) {
	trials := 4000
	if cfg.Full {
		trials = 20000
	}
	tbl := &Table{
		Title:   "T1-INTRA: intraspecific competition only (alpha=0, gamma=1, beta=delta=1)",
		Caption: "Theorem 25: failure probability is bounded below by a constant for every gap, including the maximal one.",
		Columns: []string{"n", "gap", "rho", "failure prob", "CI low (failure)"},
	}
	p := consensus.LVProtocol{
		Params: lv.Neutral(1, 1, 0, 1, lv.SelfDestructive),
		Label:  "intra-only LV",
	}
	for _, n := range []int{32, 64, 128} {
		for _, frac := range []float64{0.25, 0.5, 1} {
			delta := consensus.MatchParity(n, int(frac*float64(n-2)))
			if delta > n-2 {
				delta = n - 2
			}
			est, err := consensus.EstimateWinProbability(p, n, delta, consensus.EstimateOptions{
				Trials:    trials,
				Workers:   cfg.workers(),
				Interrupt: cfg.Interrupt,
				Progress:  cfg.Progress,
				Seed:      cfg.Seed + uint64(n*1000+delta),
			})
			if err != nil {
				return nil, err
			}
			failure := 1 - est.P()
			tbl.AddRow(n, delta, est.P(), failure, 1-est.Hi)
			cfg.logf("T1-INTRA n=%d gap=%d rho=%.4f", n, delta, est.P())
		}
	}
	return []*Table{tbl}, nil
}

// runTable1Cho reproduces Table 1 row 4: the δ = 0 special cases. The Cho
// et al. model (SD, δ=0) was proven to need only O(√(n log n)) by prior
// work; this paper shows its threshold is actually polylogarithmic. The
// Andaur et al. model (NSD, bounded growth, δ=0) sits in the √n regime.
func runTable1Cho(cfg Config) ([]*Table, error) {
	shapesSD, orderSD := sdShapes()
	choPoints, choTbl, err := thresholdCurve(cfg,
		choProtocol(),
		"T1-CHO: Cho et al. model (delta=0, self-destructive, beta=1, alpha0=alpha1=1)",
		"Prior work proved O(sqrt(n log n)) sufficient; Theorem 14 improves this to O(log^2 n) — the measured threshold should be polylog.",
		shapesSD, orderSD)
	if err != nil {
		return nil, err
	}

	shapesNSD, orderNSD := nsdShapes()
	andaurPoints, andaurTbl, err := thresholdCurve(cfg,
		andaurAdapter{},
		"T1-CHO/ANDAUR: Andaur et al. resource-consumer model (delta=0, NSD, bounded growth)",
		"Their Omega(sqrt(n log n)) upper bound, strengthened to true whp by this paper's technique; measured threshold should scale ~sqrt(n).",
		shapesNSD, orderNSD)
	if err != nil {
		return nil, err
	}
	return []*Table{
		choTbl, fitTable(choPoints, "T1-CHO: Cho scaling fit"),
		andaurTbl, fitTable(andaurPoints, "T1-CHO: Andaur scaling fit"),
	}, nil
}

// runTable1None reproduces Table 1 row 5: without competition and with
// β = δ, the species are two independent critical birth–death chains and
// ρ(a,b) = a/(a+b), so only a minority of size 1 reaches the 1 − 1/n bar.
func runTable1None(cfg Config) ([]*Table, error) {
	trials := 20000
	if cfg.Full {
		trials = 100000
	}
	params := lv.Neutral(1, 1, 0, 0, lv.SelfDestructive)
	tbl := &Table{
		Title:   "T1-NONE: no competition (alpha=gamma=0, beta=delta=1)",
		Caption: "rho = a/(a+b) (prior work); the 1-1/n bar is reached only at minority size 1, threshold n-2.",
		Columns: []string{"a", "b", "exact a/(a+b)", "rho estimate", "CI low", "CI high"},
	}
	states := []lv.State{
		{X0: 7, X1: 1},
		{X0: 9, X1: 3},
		{X0: 15, X1: 1},
		{X0: 24, X1: 8},
	}
	for _, s := range states {
		exact := lv.ConsensusProbabilityExact(s)
		adj, _, err := estimateBothScorings(cfg, params, s, trials)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(s.X0, s.X1, exact, adj.P(), adj.Lo, adj.Hi)
		cfg.logf("T1-NONE (%d,%d): exact=%.4f est=%.4f", s.X0, s.X1, exact, adj.P())
	}
	return []*Table{tbl}, nil
}
