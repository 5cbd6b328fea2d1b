// Package experiment implements the reproduction harness: one registered
// experiment per paper artifact (the six rows of Table 1) plus one per
// load-bearing theorem or lemma, as indexed in DESIGN.md §3 — a file
// generated from this registry by cmd/report, so the index can never drift
// from the code. Each experiment produces tables whose rows mirror what the
// paper reports, at two effort levels: quick for CI/benchmarks, full for
// the record in EXPERIMENTS.md (generated from run manifests written by
// cmd/experiments -report; see internal/report).
package experiment

import (
	"fmt"
	"io"
	"runtime"
	"sort"

	"lvmajority/internal/progress"
	"lvmajority/internal/sweep"
)

// Config controls an experiment run.
type Config struct {
	// Seed determines all randomness; runs are reproducible per seed.
	Seed uint64
	// Workers is the parallel worker count; zero uses GOMAXPROCS.
	Workers int
	// Full selects the heavier parameter grids used for the recorded
	// results; the default (quick) grids keep every experiment in the
	// tens-of-seconds range.
	Full bool
	// Cache, when non-nil, serves and records threshold-search probes
	// across runs (see internal/sweep); it never changes results, only
	// skips already-settled Monte-Carlo work.
	Cache *sweep.Cache
	// Interrupt, when non-nil, is polled between Monte-Carlo trials
	// throughout the experiment; a non-nil return aborts the run with
	// that error. The server uses it for per-run cancellation; it never
	// affects results while it returns nil.
	Interrupt func() error
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Progress, when non-nil, receives the structured observation stream
	// of every engine the experiment drives (trials, running estimates,
	// sweep probes and points — see internal/progress). Observation-only:
	// attaching a hook never changes tables.
	Progress progress.Hook
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// Experiment is one registered reproduction experiment.
type Experiment struct {
	// ID is the experiment identifier used throughout DESIGN.md and
	// EXPERIMENTS.md (e.g. "T1-SD").
	ID string
	// Title is a one-line description.
	Title string
	// Artifact names the paper artifact the experiment reproduces.
	Artifact string
	// QuickGrid summarizes the default (quick) parameter grid; it appears
	// in the DESIGN.md index generated by cmd/report.
	QuickGrid string
	// FullGrid summarizes the heavier grid selected by Config.Full.
	FullGrid string
	// Run executes the experiment and returns its tables.
	Run func(cfg Config) ([]*Table, error)
}

// registry returns all experiments in presentation order. A function rather
// than a package-level variable keeps the package free of mutable globals.
func registry() []Experiment {
	return []Experiment{
		{
			ID:        "T1-SD",
			Title:     "Threshold scaling, self-destructive interspecific competition",
			Artifact:  "Table 1 row 1 (SD); Theorems 14 and 17",
			QuickGrid: "threshold sweep over n in {256..4096}, <= 4k trials/probe",
			FullGrid:  "n in {256..16384}, <= 40k trials/probe",
			Run:       runTable1SD,
		},
		{
			ID:        "T1-NSD",
			Title:     "Threshold scaling, non-self-destructive interspecific competition",
			Artifact:  "Table 1 row 1 (NSD); Theorems 18 and 19",
			QuickGrid: "threshold sweep over n in {256..4096}, <= 4k trials/probe",
			FullGrid:  "n in {256..16384}, <= 40k trials/probe",
			Run:       runTable1NSD,
		},
		{
			ID:        "T1-BOTH",
			Title:     "Inter- and intraspecific competition: exact rho = a/(a+b)",
			Artifact:  "Table 1 row 2; Theorems 20 and 23",
			QuickGrid: "2 models x 4 states, 20k trials each",
			FullGrid:  "100k trials each",
			Run:       runTable1Both,
		},
		{
			ID:        "T1-INTRA",
			Title:     "Intraspecific competition only: no threshold exists",
			Artifact:  "Table 1 row 3; Theorem 25",
			QuickGrid: "n in {32,64,128} x 3 gap fractions, 4k trials",
			FullGrid:  "20k trials",
			Run:       runTable1Intra,
		},
		{
			ID:        "T1-CHO",
			Title:     "delta = 0 special cases (Cho et al., Andaur et al.)",
			Artifact:  "Table 1 row 4; Section 2.2",
			QuickGrid: "2 models, threshold sweep over n in {256..4096}, <= 4k trials/probe",
			FullGrid:  "n in {256..16384}, <= 40k trials/probe",
			Run:       runTable1Cho,
		},
		{
			ID:        "T1-NONE",
			Title:     "No competition: rho = a/(a+b), threshold n-2",
			Artifact:  "Table 1 row 5",
			QuickGrid: "4 states, 20k trials each",
			FullGrid:  "100k trials each",
			Run:       runTable1None,
		},
		{
			ID:        "E-SEP",
			Title:     "Exponential SD vs NSD separation at fixed n",
			Artifact:  "Section 1.4 headline comparison",
			QuickGrid: "n=1024, gaps 2..n/2 doubling, 3k trials/gap",
			FullGrid:  "n=4096, 20k trials/gap",
			Run:       runSeparation,
		},
		{
			ID:        "E-TIME",
			Title:     "Consensus time T(S) = O(n)",
			Artifact:  "Theorem 13(a)",
			QuickGrid: "2 models x n in {256..4096}, 400 runs",
			FullGrid:  "n in {256..16384}, 4k runs",
			Run:       runConsensusTime,
		},
		{
			ID:        "E-BAD",
			Title:     "Bad non-competitive events J(S): O(log n) mean, O(log^2 n) whp",
			Artifact:  "Theorem 13(b)",
			QuickGrid: "2 models x n in {256..4096}, 600 runs",
			FullGrid:  "n in {256..16384}, 6k runs",
			Run:       runBadEvents,
		},
		{
			ID:        "E-NICE",
			Title:     "Nice single-species chains: extinction Theta(n), births O(log n)",
			Artifact:  "Lemmas 5-8",
			QuickGrid: "n in {256..4096}, 2k runs + exact recurrence",
			FullGrid:  "n in {256..16384}, 20k runs",
			Run:       runNiceChain,
		},
		{
			ID:        "E-DOM",
			Title:     "Chain domination: T(S) <= E(N), J(S) <= B(N) stochastically",
			Artifact:  "Lemmas 9-12 (pseudo-coupling)",
			QuickGrid: "2 models, 40 coupled runs x 3k steps + 2k-run ECDFs",
			FullGrid:  "20k steps, 10k-run ECDFs",
			Run:       runDomination,
		},
		{
			ID:        "E-ODE",
			Title:     "Deterministic ODE vs stochastic finite-n behaviour",
			Artifact:  "Section 2.1, Eq. (4)",
			QuickGrid: "n in {64,256,1024} at minimal gap, 3k trials",
			FullGrid:  "20k trials",
			Run:       runODEComparison,
		},
		{
			ID:        "E-BASE",
			Title:     "Baseline protocols at matched population size",
			Artifact:  "Section 2.2 related-work comparison",
			QuickGrid: "10 protocols at n=256, 1k trials/probe",
			FullGrid:  "n=1024, 8k trials/probe",
			Run:       runBaselines,
		},
		{
			ID:        "E-ASYM",
			Title:     "Asymmetric competition: minority as the better competitor",
			Artifact:  "Theorem 18 (allows alpha0 != alpha1)",
			QuickGrid: "4 rate ratios, threshold sweep over n in {256,512,1024}, 1.5k trials/probe",
			FullGrid:  "8k trials/probe",
			Run:       runAsymmetric,
		},
		{
			ID:        "E-EXACT",
			Title:     "Closed form vs exact grid solver vs Monte Carlo",
			Artifact:  "Eq. (8) recurrence; Theorems 20 and 23",
			QuickGrid: "2 models x 3 states, grid ceiling 80, 20k trials",
			FullGrid:  "grid ceiling 160, 100k trials",
			Run:       runExactSolver,
		},
		{
			ID:        "E-NOISE",
			Title:     "Demographic noise decomposition F = F_ind + F_comp",
			Artifact:  "Section 1.5 (technique overview)",
			QuickGrid: "2 models x n in {256..4096}, 800 tie-start runs",
			FullGrid:  "n in {256..16384}, 6k runs",
			Run:       runNoiseDecomposition,
		},
		{
			ID:        "E-GAMMA",
			Title:     "Threshold transition as gamma -> 0 (open problem)",
			Artifact:  "Section 1.6 open problems",
			QuickGrid: "7 gamma/alpha ratios at n=1024, 3k trials",
			FullGrid:  "n=4096, 12k trials",
			Run:       runGammaTransition,
		},
		{
			ID:        "E-SPATIAL",
			Title:     "Spatial (deme-structured) extension of the SD amplifier",
			Artifact:  "Sections 1.6-1.7 future work (explicit spatial dynamics)",
			QuickGrid: "n=512, 9 (demes, migration, topology) cells, 1.2k trials",
			FullGrid:  "n=2048, 14 cells, 6k trials",
			Run:       runSpatial,
		},
		{
			ID:        "E-PLURAL",
			Title:     "k-species plurality consensus generalization",
			Artifact:  "Section 2.2 (plurality consensus related work); exploration",
			QuickGrid: "k in {2,3,5} x 2 models, n=600, 1.2k trials",
			FullGrid:  "n=2400, 6k trials",
			Run:       runPlurality,
		},
		{
			ID:        "E-GOSSIP",
			Title:     "Synchronous gossip dynamics thresholds (static population)",
			Artifact:  "Section 2.2 (gossip-model majority consensus [9, 11, 23, 33, 39])",
			QuickGrid: "3 dynamics, threshold sweep over n in {256..4096}; voter at n=256, 400 trials",
			FullGrid:  "n in {256..16384}; voter at n=512, 1.5k trials",
			Run:       runGossip,
		},
		{
			ID:        "E-MORAN",
			Title:     "Moran process vs exact fixation probability",
			Artifact:  "Static-population baseline; mirrors Theorems 20/23 (rho = a/(a+b))",
			QuickGrid: "n in {64,256} x 2 fitness x 2 gaps, 1.5k trials",
			FullGrid:  "n in {64,256,1024}, 5k trials",
			Run:       runMoran,
		},
		{
			ID:        "E-EXPLOIT",
			Title:     "Exploitative (resource-consumer) competition chemostat",
			Artifact:  "Section 1.6 future work (exploitative competition)",
			QuickGrid: "capacity 90, 3 regimes x 3 gaps, 400 trials",
			FullGrid:  "capacity 180, 1.5k trials",
			Run:       runExploit,
		},
		{
			ID:        "E-DIFF",
			Title:     "Diffusion approximation of rho from the noise decomposition",
			Artifact:  "Section 1.5 (F = F_ind + F_comp); quantitative model",
			QuickGrid: "2 models x n in {512,2048}, 400 pilots, 1.5k trials/gap",
			FullGrid:  "n in {512,2048,8192}, 2k pilots, 6k trials/gap",
			Run:       runDiffusion,
		},
		{
			ID:        "E-FITNESS",
			Title:     "Non-neutral birth rates: selection vs the majority signal",
			Artifact:  "Section 1.7 neutrality assumption; ablation",
			QuickGrid: "n=512, 2 models x 2 gap regimes x 4 rate ratios, 1k trials",
			FullGrid:  "n=2048, 4k trials",
			Run:       runFitness,
		},
	}
}

// All returns every registered experiment in presentation order.
func All() []Experiment { return registry() }

// IDs returns the sorted experiment identifiers.
func IDs() []string {
	exps := registry()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return ids
}

// ByID looks up an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiment: unknown id %q (known: %v)", id, IDs())
}
