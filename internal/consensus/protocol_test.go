package consensus

import (
	"testing"
	"testing/quick"

	"lvmajority/internal/lv"
	"lvmajority/internal/rng"
)

func TestSplitInitial(t *testing.T) {
	cases := []struct {
		n, delta int
		a, b     int
		wantErr  bool
	}{
		{100, 10, 55, 45, false},
		{100, 0, 50, 50, false},
		{101, 1, 51, 50, false},
		{100, 98, 99, 1, false},
		{100, 100, 0, 0, true}, // empty minority
		{100, 11, 0, 0, true},  // parity mismatch
		{100, -2, 0, 0, true},  // negative gap
		{0, 0, 0, 0, true},     // empty population
		{101, 101, 0, 0, true}, // gap too large
	}
	for _, tc := range cases {
		a, b, err := SplitInitial(tc.n, tc.delta)
		if tc.wantErr {
			if err == nil {
				t.Errorf("SplitInitial(%d, %d) did not error", tc.n, tc.delta)
			}
			continue
		}
		if err != nil {
			t.Errorf("SplitInitial(%d, %d): %v", tc.n, tc.delta, err)
			continue
		}
		if a != tc.a || b != tc.b {
			t.Errorf("SplitInitial(%d, %d) = (%d, %d), want (%d, %d)", tc.n, tc.delta, a, b, tc.a, tc.b)
		}
	}
}

func TestSplitInitialProperty(t *testing.T) {
	err := quick.Check(func(nRaw, dRaw uint16) bool {
		n := int(nRaw)%1000 + 3
		delta := MatchParity(n, int(dRaw)%(n-2))
		if delta > n-2 {
			delta -= 2
		}
		if delta < 0 {
			return true
		}
		a, b, err := SplitInitial(n, delta)
		if err != nil {
			return false
		}
		return a+b == n && a-b == delta && b > 0
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestMatchParity(t *testing.T) {
	cases := []struct {
		n, delta, want int
	}{
		{100, 10, 10},
		{100, 11, 12},
		{101, 11, 11},
		{101, 10, 11},
		{100, 0, 0},
		{101, 0, 1},
	}
	for _, tc := range cases {
		if got := MatchParity(tc.n, tc.delta); got != tc.want {
			t.Errorf("MatchParity(%d, %d) = %d, want %d", tc.n, tc.delta, got, tc.want)
		}
	}
}

func TestLVProtocolName(t *testing.T) {
	p := LVProtocol{Params: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)}
	if p.Name() == "" {
		t.Error("empty generated name")
	}
	labeled := LVProtocol{Label: "sd-lv"}
	if labeled.Name() != "sd-lv" {
		t.Errorf("Name = %q, want sd-lv", labeled.Name())
	}
}

func TestLVProtocolTrial(t *testing.T) {
	p := LVProtocol{Params: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)}
	src := rng.New(3)
	wins := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		won, err := p.Trial(100, 80, src)
		if err != nil {
			t.Fatal(err)
		}
		if won {
			wins++
		}
	}
	if wins < trials*9/10 {
		t.Errorf("overwhelming majority won only %d/%d", wins, trials)
	}
}

func TestLVProtocolTrialParityError(t *testing.T) {
	p := LVProtocol{Params: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)}
	for _, n := range []int{10, 100} {
		if _, err := p.Trial(n, 3, rng.New(1)); err == nil {
			t.Errorf("parity mismatch n=%d, delta=3 did not error", n)
		}
		if _, err := p.NewTrialBlock(n, 3); err == nil {
			t.Errorf("block path accepted parity mismatch n=%d, delta=3", n)
		}
	}
}

func TestLVProtocolMaxStepsFailureCounting(t *testing.T) {
	// A chain without any reactions cannot reach consensus; every trial
	// must count as a failure rather than hanging.
	p := LVProtocol{
		Params:   lv.Neutral(0, 0, 0, 0, lv.SelfDestructive),
		MaxSteps: 10,
	}
	won, err := p.Trial(10, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if won {
		t.Error("non-converging trial counted as win")
	}
}

func TestLVProtocolTieBreaks(t *testing.T) {
	// A pure SD competition chain from (1, 1) — n = 2, delta = 0 —
	// always ends in double extinction (one interspecific event reaches
	// (0, 0)). TieIsLoss must always lose; TieIsCoinFlip must win about
	// half the time.
	params := lv.Neutral(0, 0, 1, 0, lv.SelfDestructive)
	src := rng.New(5)

	loss := LVProtocol{Params: params, Ties: TieIsLoss}
	for i := 0; i < 100; i++ {
		won, err := loss.Trial(2, 0, src)
		if err != nil {
			t.Fatal(err)
		}
		if won {
			t.Fatal("double extinction scored as a win under TieIsLoss")
		}
	}

	coin := LVProtocol{Params: params, Ties: TieIsCoinFlip}
	heads := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		won, err := coin.Trial(2, 0, src)
		if err != nil {
			t.Fatal(err)
		}
		if won {
			heads++
		}
	}
	if heads < trials*45/100 || heads > trials*55/100 {
		t.Errorf("coin-flip tie break won %d/%d, want ~half", heads, trials)
	}
}
