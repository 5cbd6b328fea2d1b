package lv

import (
	"math"
	"testing"
	"testing/quick"

	"lvmajority/internal/rng"
	"lvmajority/internal/stats"
)

func TestNewChainValidation(t *testing.T) {
	params := Neutral(1, 1, 1, 0, SelfDestructive)
	if _, err := NewChain(params, State{X0: -1}, rng.New(1)); err == nil {
		t.Error("negative state accepted")
	}
	if _, err := NewChain(Params{Beta: -1, Competition: SelfDestructive}, State{1, 1}, rng.New(1)); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := NewChain(params, State{1, 1}, nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestPropensitiesMatchPaperPhi(t *testing.T) {
	p := Params{
		Beta: 1.25, Delta: 0.75,
		Alpha:       [2]float64{0.5, 1.5},
		Gamma:       [2]float64{0.25, 2},
		Competition: SelfDestructive,
	}
	chain, err := NewChain(p, State{X0: 7, X1: 4}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	props, total := chain.Propensities()
	x0, x1 := 7.0, 4.0
	want := map[EventKind]float64{
		Birth0: 1.25 * x0,
		Birth1: 1.25 * x1,
		Death0: 0.75 * x0,
		Death1: 0.75 * x1,
		Inter0: 0.5 * x0 * x1,
		Inter1: 1.5 * x0 * x1,
		Intra0: 0.25 * x0 * (x0 - 1) / 2,
		Intra1: 2 * x1 * (x1 - 1) / 2,
	}
	var wantTotal float64
	for k, w := range want {
		if got := props[k]; math.Abs(got-w) > 1e-12 {
			t.Errorf("propensity(%v) = %v, want %v", k, got, w)
		}
		wantTotal += w
	}
	if math.Abs(total-wantTotal) > 1e-9 {
		t.Errorf("total = %v, want %v", total, wantTotal)
	}
}

func TestApplyEffects(t *testing.T) {
	sd := Neutral(1, 1, 1, 1, SelfDestructive)
	nsd := Neutral(1, 1, 1, 1, NonSelfDestructive)
	start := State{X0: 5, X1: 3}
	cases := []struct {
		name string
		p    Params
		k    EventKind
		want State
	}{
		{"birth0", sd, Birth0, State{6, 3}},
		{"birth1", sd, Birth1, State{5, 4}},
		{"death0", sd, Death0, State{4, 3}},
		{"death1", sd, Death1, State{5, 2}},
		{"sd inter0", sd, Inter0, State{4, 2}},
		{"sd inter1", sd, Inter1, State{4, 2}},
		{"sd intra0", sd, Intra0, State{3, 3}},
		{"sd intra1", sd, Intra1, State{5, 1}},
		{"nsd inter0 kills 1", nsd, Inter0, State{5, 2}},
		{"nsd inter1 kills 0", nsd, Inter1, State{4, 3}},
		{"nsd intra0", nsd, Intra0, State{4, 3}},
		{"nsd intra1", nsd, Intra1, State{5, 2}},
	}
	for _, tc := range cases {
		if got := apply(tc.p, start, tc.k); got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestApplyMovesCountsByAtMostTwo checks the bounds rounds512's run length
// rests on: every channel moves each count by −2 to +1, and only an
// intraspecific event of the self-destructive model moves one by −2.
func TestApplyMovesCountsByAtMostTwo(t *testing.T) {
	s := State{X0: 5, X1: 3}
	for _, c := range []Competition{SelfDestructive, NonSelfDestructive} {
		p := Neutral(1, 1, 1, 1, c)
		for k := range EventKind(NumEventKinds) {
			lo := -1
			if c == SelfDestructive && (k == Intra0 || k == Intra1) {
				lo = -2
			}
			next := apply(p, s, k)
			for i, d := range [2]int{next.X0 - s.X0, next.X1 - s.X1} {
				if d < lo || d > 1 {
					t.Errorf("%v %v moves x%d by %+d, want %+d to +1", c, k, i, d, lo)
				}
			}
		}
	}
}

func TestSDInterLeavesGapUnchanged(t *testing.T) {
	p := Neutral(0, 0, 1, 0, SelfDestructive)
	s := State{X0: 9, X1: 4}
	next := apply(p, s, Inter0)
	if next.Gap() != s.Gap() {
		t.Errorf("SD interspecific event changed the gap: %d -> %d", s.Gap(), next.Gap())
	}
}

func TestStepAbsorbed(t *testing.T) {
	p := Neutral(0, 1, 1, 0, SelfDestructive)
	chain, err := NewChain(p, State{0, 0}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := chain.Step(); ok {
		t.Error("Step on (0,0) reported progress")
	}
}

func TestRunReachesConsensus(t *testing.T) {
	p := Neutral(1, 1, 1, 0, SelfDestructive)
	out, err := Run(p, State{X0: 60, X1: 40}, rng.New(17), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Consensus {
		t.Fatal("no consensus reached")
	}
	if !out.Final.Consensus() {
		t.Errorf("final state %+v is not a consensus state", out.Final)
	}
	if out.Steps != out.Individual+out.Competitive {
		t.Errorf("T != I + K: %d != %d + %d", out.Steps, out.Individual, out.Competitive)
	}
	if out.BadNonCompetitive > out.Individual {
		t.Errorf("J > I: %d > %d", out.BadNonCompetitive, out.Individual)
	}
	if out.MaxPopulation < 100 {
		t.Errorf("MaxPopulation = %d below initial total", out.MaxPopulation)
	}
}

func TestRunNoiseIdentity(t *testing.T) {
	// F_ind + F_comp must equal Δ₀ − Δ_T measured w.r.t. the initial
	// majority, for every run and parameterization.
	cfgs := []Params{
		Neutral(1, 1, 1, 0, SelfDestructive),
		Neutral(1, 1, 1, 0, NonSelfDestructive),
		Neutral(0.5, 0.1, 2, 0.5, SelfDestructive),
		Neutral(2, 1, 0.5, 1, NonSelfDestructive),
	}
	src := rng.New(23)
	for _, p := range cfgs {
		for trial := 0; trial < 50; trial++ {
			initial := State{X0: 30 + src.Intn(20), X1: 10 + src.Intn(15)}
			out, err := Run(p, initial, src, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !out.Consensus {
				t.Fatalf("%v: no consensus from %+v", p, initial)
			}
			gap0 := initial.X0 - initial.X1
			gapT := out.Final.X0 - out.Final.X1
			if got, want := out.FInd+out.FComp, gap0-gapT; got != want {
				t.Errorf("%v from %+v: F = %d, want Δ0−ΔT = %d", p, initial, got, want)
			}
		}
	}
}

func TestRunSelfDestructiveFCompZero(t *testing.T) {
	// Under SD interspecific-only competition, competitive events cannot
	// change the gap, so F_comp = 0 always (§6).
	p := Neutral(1, 1, 1, 0, SelfDestructive)
	src := rng.New(29)
	for trial := 0; trial < 100; trial++ {
		out, err := Run(p, State{X0: 50, X1: 30}, src, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if out.FComp != 0 {
			t.Fatalf("F_comp = %d under SD interspecific-only competition", out.FComp)
		}
	}
}

func TestRunMinorityOrientation(t *testing.T) {
	// The accounting must work when species 1 is the initial majority.
	p := Neutral(1, 1, 1, 0, SelfDestructive)
	src := rng.New(31)
	wins := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		out, err := Run(p, State{X0: 10, X1: 90}, src, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Consensus {
			t.Fatal("no consensus")
		}
		if out.MajorityWon {
			if out.Winner != 1 {
				t.Fatalf("MajorityWon but winner = %d", out.Winner)
			}
			wins++
		}
	}
	if wins < trials*8/10 {
		t.Errorf("initial majority (species 1) won only %d/%d", wins, trials)
	}
}

func TestRunDoubleExtinction(t *testing.T) {
	// SD interspecific competition from (1, 1) always ends in (0, 0) when
	// only competition is active.
	p := Neutral(0, 0, 1, 0, SelfDestructive)
	out, err := Run(p, State{1, 1}, rng.New(37), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Consensus || out.Winner != -1 || out.MajorityWon {
		t.Errorf("outcome = %+v, want double extinction", out)
	}
	if out.Final != (State{0, 0}) {
		t.Errorf("final = %+v, want (0,0)", out.Final)
	}
}

func TestRunMaxStepsBudget(t *testing.T) {
	// Supercritical birth-only chain never reaches consensus; the budget
	// must stop it.
	p := Neutral(1, 0, 0, 0, SelfDestructive)
	out, err := Run(p, State{5, 5}, rng.New(41), RunOptions{MaxSteps: 200})
	if err != nil {
		t.Fatal(err)
	}
	if out.Consensus {
		t.Error("birth-only chain claimed consensus")
	}
	if out.Steps != 200 {
		t.Errorf("steps = %d, want 200", out.Steps)
	}
}

func TestRunAllRatesZero(t *testing.T) {
	p := Neutral(0, 0, 0, 0, SelfDestructive)
	out, err := Run(p, State{3, 2}, rng.New(1), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Consensus || out.Steps != 0 {
		t.Errorf("outcome = %+v, want stuck chain", out)
	}
}

func TestRunGapHitZeroFromTie(t *testing.T) {
	// Starting tied with positive counts and at least one more step
	// before consensus, GapHitZero must not trigger for the start state
	// itself but must trigger if the chain returns to a tie.
	p := Neutral(1, 1, 1, 0, SelfDestructive)
	src := rng.New(47)
	sawHit := false
	for i := 0; i < 200; i++ {
		out, err := Run(p, State{20, 18}, src, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if out.GapHitZero {
			sawHit = true
		}
	}
	if !sawHit {
		t.Error("chain from (20,18) never revisited a tied state in 200 runs; suspicious")
	}
}

func TestRunCountsStayNonNegativeProperty(t *testing.T) {
	// Pathwise invariant: no state ever has negative counts; verified by
	// stepping manually across random parameterizations.
	err := quick.Check(func(seed uint64, a, b uint8, sd bool) bool {
		comp := SelfDestructive
		if !sd {
			comp = NonSelfDestructive
		}
		p := Neutral(1, 0.5, 1, 0.5, comp)
		chain, err := NewChain(p, State{X0: int(a%40) + 1, X1: int(b%40) + 1}, rng.New(seed))
		if err != nil {
			return false
		}
		for i := 0; i < 2000; i++ {
			_, ok := chain.Step()
			if !ok {
				break
			}
			s := chain.State()
			if s.X0 < 0 || s.X1 < 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

func TestNeutralSymmetry(t *testing.T) {
	// For a neutral chain from (a, a), each species wins with equal
	// probability (Lemma 15's underlying symmetry).
	p := Neutral(1, 1, 1, 0, NonSelfDestructive)
	src := rng.New(53)
	const trials = 4000
	wins0 := 0
	decided := 0
	for i := 0; i < trials; i++ {
		out, err := Run(p, State{25, 25}, src, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Winner == 0 {
			wins0++
		}
		if out.Winner >= 0 {
			decided++
		}
	}
	est, err := stats.WilsonInterval(wins0, decided, stats.Z999)
	if err != nil {
		t.Fatal(err)
	}
	if est.Lo > 0.5 || est.Hi < 0.5 {
		t.Errorf("species 0 win rate = %v, CI does not contain 0.5", est)
	}
}

func TestEventKindHelpers(t *testing.T) {
	individual := []EventKind{Birth0, Birth1, Death0, Death1}
	competitive := []EventKind{Inter0, Inter1, Intra0, Intra1}
	for _, k := range individual {
		if !k.IsIndividual() {
			t.Errorf("%v misclassified", k)
		}
	}
	for _, k := range competitive {
		if k.IsIndividual() {
			t.Errorf("%v misclassified", k)
		}
	}
	if Birth0.String() != "birth0" || Intra1.String() != "intra1" {
		t.Error("EventKind names wrong")
	}
}
