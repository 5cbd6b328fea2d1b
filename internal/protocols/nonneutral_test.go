package protocols

import (
	"testing"

	"lvmajority/internal/consensus"
	"lvmajority/internal/crn"
	"lvmajority/internal/lv"
	"lvmajority/internal/rng"
	"lvmajority/internal/stats"
)

func neutralGeneral(comp lv.Competition) GeneralLVParams {
	return FromNeutral(lv.Neutral(1, 1, 1, 0, comp))
}

func TestGeneralLVParamsValidate(t *testing.T) {
	if err := neutralGeneral(lv.SelfDestructive).Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := neutralGeneral(lv.SelfDestructive)
	bad.Beta[1] = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative beta accepted")
	}
	if err := (GeneralLVParams{}).Validate(); err == nil {
		t.Error("zero competition model accepted")
	}
}

// TestGeneralLVNetworkShape checks the network's layout against the lv
// package's channels: species X0 and X1, and eight uniquely named
// reactions, each of which leads from (6, 4) to the state lv.ApplyEvent
// gives for the channel of the same name.
func TestGeneralLVNetworkShape(t *testing.T) {
	kinds := map[string]lv.EventKind{}
	for k := lv.EventKind(0); int(k) < lv.NumEventKinds; k++ {
		kinds[k.String()] = k
	}
	for _, comp := range []lv.Competition{lv.SelfDestructive, lv.NonSelfDestructive} {
		params := lv.Neutral(1, 1, 1, 0, comp)
		net, err := FromNeutral(params).Network()
		if err != nil {
			t.Fatal(err)
		}
		if net.NumSpecies() != 2 || net.NumReactions() != 8 {
			t.Fatalf("%s: %d species, %d reactions", comp, net.NumSpecies(), net.NumReactions())
		}
		for i, want := range []string{"X0", "X1"} {
			if got := net.SpeciesName(crn.Species(i)); got != want {
				t.Errorf("%s: species %d named %q, want %q", comp, i, got, want)
			}
		}
		start := lv.State{X0: 6, X1: 4}
		seen := map[string]bool{}
		for r := 0; r < net.NumReactions(); r++ {
			name := net.Reaction(r).Name
			if seen[name] {
				t.Errorf("%s: duplicate reaction name %q", comp, name)
			}
			seen[name] = true
			kind, ok := kinds[name]
			if !ok {
				t.Errorf("%s: reaction %q names no lv channel", comp, name)
				continue
			}
			state := []int{start.X0, start.X1}
			if err := net.Apply(r, state); err != nil {
				t.Fatalf("%s/%s: %v", comp, name, err)
			}
			if got, want := (lv.State{X0: state[0], X1: state[1]}), lv.ApplyEvent(params, start, kind); got != want {
				t.Errorf("%s/%s: network gives %+v, lv gives %+v", comp, name, got, want)
			}
		}
	}
}

// TestGeneralLVPropensitiesMatchSpecializedEngine cross-checks the CRN
// formulation against lv.PropensitiesFor: in any state, the total
// propensity of the generalized network with neutral rates must equal the
// specialized sampler's total.
func TestGeneralLVPropensitiesMatchSpecializedEngine(t *testing.T) {
	cfgs := []lv.Params{
		lv.Neutral(1.5, 0.5, 2, 0.25, lv.NonSelfDestructive),
		lv.Neutral(1.5, 0.5, 0.75, 0.25, lv.SelfDestructive),
		lv.Neutral(1.5, 0.5, 0.75, 0.25, lv.NonSelfDestructive),
		{
			Beta: 1, Delta: 2,
			Alpha:       [2]float64{0.5, 1.5},
			Gamma:       [2]float64{2, 0.5},
			Competition: lv.NonSelfDestructive,
		},
	}
	states := []lv.State{
		{X0: 10, X1: 7}, {X0: 1, X1: 1}, {X0: 0, X1: 5}, {X0: 3, X1: 0},
		{X0: 0, X1: 0}, {X0: 1, X1: 0}, {X0: 5, X1: 3}, {X0: 17, X1: 29},
	}
	for _, params := range cfgs {
		net, err := FromNeutral(params).Network()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range states {
			_, wantTotal := lv.PropensitiesFor(params, s)
			gotTotal := net.TotalPropensity([]int{s.X0, s.X1})
			if diff := gotTotal - wantTotal; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%+v in state %+v: total propensity %v vs lv engine %v", params, s, gotTotal, wantTotal)
			}
		}
	}
}

// TestGeneralLVAgreesWithSpecializedEngine is the engine cross-validation:
// for neutral rates, the win-probability estimates from the CRN-backed
// generalized protocol and from the specialized internal/lv sampler must
// agree within their confidence intervals.
func TestGeneralLVAgreesWithSpecializedEngine(t *testing.T) {
	const (
		n     = 256
		delta = 16
	)
	for _, params := range []lv.Params{
		lv.Neutral(1, 1, 1, 0, lv.NonSelfDestructive),
		lv.Neutral(1, 0.5, 1, 0.5, lv.NonSelfDestructive),
	} {
		general := &GeneralLVProtocol{Params: FromNeutral(params)}
		specialized := &consensus.LVProtocol{Params: params}
		opts := consensus.EstimateOptions{Trials: 2000, Seed: 11}
		got, err := consensus.EstimateWinProbability(general, n, delta, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := consensus.EstimateWinProbability(specialized, n, delta, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Lo > want.Hi || want.Lo > got.Hi {
			t.Errorf("%+v: engines disagree: general [%.3f, %.3f] vs specialized [%.3f, %.3f]",
				params, got.Lo, got.Hi, want.Lo, want.Hi)
		}
	}
}

// TestGeneralLVFitnessShiftsOutcome checks the non-neutral behaviour the
// generalization exists for: a birth-rate advantage for the minority
// species must depress the majority's win probability, and an advantage
// for the majority must raise it.
func TestGeneralLVFitnessShiftsOutcome(t *testing.T) {
	const (
		n      = 256
		delta  = 16
		trials = 1200
	)
	estimate := func(beta0, beta1 float64) stats.BernoulliEstimate {
		t.Helper()
		p := neutralGeneral(lv.NonSelfDestructive)
		p.Beta[0] = beta0
		p.Beta[1] = beta1
		est, err := consensus.EstimateWinProbability(
			&GeneralLVProtocol{Params: p}, n, delta,
			consensus.EstimateOptions{Trials: trials, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	neutral := estimate(1, 1)
	majorityFit := estimate(1.3, 1)
	minorityFit := estimate(1, 1.3)
	if majorityFit.P() <= neutral.P() {
		t.Errorf("majority fitness advantage did not help: %.3f vs neutral %.3f",
			majorityFit.P(), neutral.P())
	}
	if minorityFit.P() >= neutral.P() {
		t.Errorf("minority fitness advantage did not hurt: %.3f vs neutral %.3f",
			minorityFit.P(), neutral.P())
	}
}

func TestGeneralLVProtocolValidation(t *testing.T) {
	p := &GeneralLVProtocol{Params: neutralGeneral(lv.SelfDestructive)}
	src := rng.New(1)
	if _, err := p.Trial(1, 0, src); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := p.Trial(100, 3, src); err == nil {
		t.Error("parity violation accepted")
	}
	bad := &GeneralLVProtocol{}
	if _, err := bad.Trial(100, 2, src); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestGeneralLVDeterministic(t *testing.T) {
	p := &GeneralLVProtocol{Params: neutralGeneral(lv.SelfDestructive)}
	for seed := uint64(0); seed < 5; seed++ {
		r1, err1 := p.Trial(128, 8, rng.New(seed))
		r2, err2 := p.Trial(128, 8, rng.New(seed))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if r1 != r2 {
			t.Fatalf("seed %d: non-deterministic trial", seed)
		}
	}
}
