package spatial

import (
	"testing"
	"testing/quick"

	"lvmajority/internal/consensus"
	"lvmajority/internal/lv"
	"lvmajority/internal/rng"
	"lvmajority/internal/stats"
)

// The Protocol adapter must satisfy consensus.Protocol.
var _ consensus.Protocol = Protocol{}

func neutralSD() lv.Params { return lv.Neutral(1, 1, 1, 0, lv.SelfDestructive) }

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Local: neutralSD(), Sites: 0},
		{Local: neutralSD(), Sites: 2, Migration: -1},
		{Local: neutralSD(), Sites: 2, Topology: Topology(9)},
		{Local: lv.Params{Beta: -1, Competition: lv.SelfDestructive}, Sites: 1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", p)
		}
	}
	good := Params{Local: neutralSD(), Sites: 4, Migration: 1, Topology: Cycle}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected %+v: %v", good, err)
	}
}

func TestNewSystemValidation(t *testing.T) {
	p := Params{Local: neutralSD(), Sites: 2, Migration: 1}
	src := rng.New(1)
	if _, err := NewSystem(p, []lv.State{{X0: 1, X1: 1}}, src); err == nil {
		t.Error("wrong deme count accepted")
	}
	if _, err := NewSystem(p, []lv.State{{X0: -1, X1: 1}, {}}, src); err == nil {
		t.Error("negative deme state accepted")
	}
	if _, err := NewSystem(p, []lv.State{{}, {}}, nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestTopologyString(t *testing.T) {
	if Cycle.String() != "cycle" || Complete.String() != "complete" {
		t.Error("topology names wrong")
	}
	if Topology(7).String() == "" {
		t.Error("unknown topology renders empty")
	}
}

func TestMigrationConservesTotals(t *testing.T) {
	// With all reaction rates zero and migration positive, every event is
	// a migration: global totals must be invariant and deme counts
	// non-negative.
	p := Params{
		Local:     lv.Neutral(0, 0, 0, 0, lv.SelfDestructive),
		Sites:     5,
		Migration: 1,
	}
	initial := []lv.State{{X0: 10, X1: 0}, {X0: 0, X1: 10}, {}, {}, {X0: 3, X1: 4}}
	sys, err := NewSystem(p, initial, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	want := sys.GlobalState()
	for i := 0; i < 5000; i++ {
		if !sys.Step() {
			t.Fatal("migration-only system stalled")
		}
		if got := sys.GlobalState(); got != want {
			t.Fatalf("totals changed: %+v -> %+v", want, got)
		}
		for d := 0; d < p.Sites; d++ {
			s := sys.Deme(d)
			if s.X0 < 0 || s.X1 < 0 {
				t.Fatalf("negative deme count at %d: %+v", d, s)
			}
		}
	}
}

func TestMigrationMixesUniformly(t *testing.T) {
	// After many migrations on a cycle, individuals should be spread
	// roughly evenly.
	p := Params{
		Local:     lv.Neutral(0, 0, 0, 0, lv.SelfDestructive),
		Sites:     4,
		Migration: 1,
	}
	initial := []lv.State{{X0: 400}, {}, {}, {}}
	sys, err := NewSystem(p, initial, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40000; i++ {
		if !sys.Step() {
			t.Fatal("stalled")
		}
	}
	for d := 0; d < p.Sites; d++ {
		if c := sys.Deme(d).X0; c < 50 || c > 150 {
			t.Errorf("deme %d holds %d of 400 after mixing, want ~100", d, c)
		}
	}
}

func TestSingleDemeMatchesWellMixed(t *testing.T) {
	// L = 1 is exactly the well-mixed chain: win probabilities must
	// agree within CI.
	if testing.Short() {
		t.Skip("statistical test")
	}
	const trials = 4000
	initial := lv.State{X0: 20, X1: 14}

	srcWM := rng.New(7)
	wmWins := 0
	for i := 0; i < trials; i++ {
		out, err := lv.Run(neutralSD(), initial, srcWM, lv.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if out.MajorityWon {
			wmWins++
		}
	}
	srcSP := rng.New(9)
	p := Params{Local: neutralSD(), Sites: 1, Migration: 5}
	spWins := 0
	for i := 0; i < trials; i++ {
		out, err := Run(p, []lv.State{initial}, srcSP, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if out.MajorityWon {
			spWins++
		}
	}
	wm, err := stats.WilsonInterval(wmWins, trials, stats.Z999)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := stats.WilsonInterval(spWins, trials, stats.Z999)
	if err != nil {
		t.Fatal(err)
	}
	if wm.Lo > sp.Hi || sp.Lo > wm.Hi {
		t.Errorf("single-deme spatial %v differs from well-mixed %v", sp, wm)
	}
}

func TestRunReachesConsensus(t *testing.T) {
	p := Params{Local: neutralSD(), Sites: 4, Migration: 1}
	initial := []lv.State{{X0: 15, X1: 10}, {X0: 15, X1: 10}, {X0: 15, X1: 10}, {X0: 15, X1: 10}}
	out, err := Run(p, initial, rng.New(11), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Consensus {
		t.Fatal("no global consensus")
	}
	if out.Winner < -1 || out.Winner > 1 {
		t.Errorf("winner = %d", out.Winner)
	}
	if out.Time <= 0 {
		t.Error("time tracking produced no time")
	}
}

func TestNoMigrationDemesIndependent(t *testing.T) {
	// With m = 0 and SD competition within demes, each deme resolves
	// independently; global consensus requires one species extinct in
	// every deme. Starting every deme biased the same way, the majority
	// should win often.
	p := Params{Local: neutralSD(), Sites: 3, Migration: 0}
	initial := []lv.State{{X0: 30, X1: 10}, {X0: 30, X1: 10}, {X0: 30, X1: 10}}
	src := rng.New(13)
	wins := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		out, err := Run(p, initial, src, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Consensus {
			t.Fatal("no consensus with independent demes")
		}
		if out.MajorityWon {
			wins++
		}
	}
	if wins < trials/2 {
		t.Errorf("majority won only %d/%d with per-deme gap 20", wins, trials)
	}
}

func TestNeighborDistribution(t *testing.T) {
	p := Params{Local: neutralSD(), Sites: 5, Migration: 1, Topology: Cycle}
	sys, err := NewSystem(p, make([]lv.State, 5), rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for i := 0; i < 10000; i++ {
		counts[sys.neighbor(2)]++
	}
	if len(counts) != 2 || counts[1] == 0 || counts[3] == 0 {
		t.Errorf("cycle neighbors of 2 = %v, want {1, 3}", counts)
	}

	p.Topology = Complete
	sys2, err := NewSystem(p, make([]lv.State, 5), rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	counts = map[int]int{}
	for i := 0; i < 10000; i++ {
		v := sys2.neighbor(2)
		if v == 2 {
			t.Fatal("complete topology returned self")
		}
		counts[v]++
	}
	if len(counts) != 4 {
		t.Errorf("complete neighbors of 2 = %v, want all 4 others", counts)
	}
}

func TestProtocolTrial(t *testing.T) {
	p := Protocol{Spatial: Params{Local: neutralSD(), Sites: 4, Migration: 1}}
	src := rng.New(23)
	wins := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		won, err := p.Trial(80, 40, src)
		if err != nil {
			t.Fatal(err)
		}
		if won {
			wins++
		}
	}
	if wins < trials*3/4 {
		t.Errorf("spatial protocol with huge gap won only %d/%d", wins, trials)
	}
	if _, err := p.Trial(10, 3, src); err == nil {
		t.Error("parity mismatch accepted")
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
}

func TestStepInvariantsProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, sitesRaw, popRaw uint8) bool {
		sites := int(sitesRaw%6) + 1
		pop := int(popRaw%30) + 2
		p := Params{Local: neutralSD(), Sites: sites, Migration: 0.5}
		initial := make([]lv.State, sites)
		for i := 0; i < pop; i++ {
			initial[i%sites].X0++
			initial[(i+1)%sites].X1++
		}
		sys, err := NewSystem(p, initial, rng.New(seed))
		if err != nil {
			return false
		}
		for i := 0; i < 500; i++ {
			if !sys.Step() {
				break
			}
			for d := 0; d < sites; d++ {
				s := sys.Deme(d)
				if s.X0 < 0 || s.X1 < 0 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

func TestTorusValidation(t *testing.T) {
	p := Params{Local: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive), Sites: 16, Topology: Torus}
	if err := p.Validate(); err != nil {
		t.Errorf("16-deme torus rejected: %v", err)
	}
	p.Sites = 12
	if err := p.Validate(); err == nil {
		t.Error("non-square torus accepted")
	}
}

func TestIsqrt(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 1}, {4, 2}, {9, 3}, {16, 4}, {2, -1}, {15, -1}, {-4, -1},
	}
	for _, tc := range cases {
		if got := isqrt(tc.n); got != tc.want {
			t.Errorf("isqrt(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestTorusNeighborsAre4Neighborhood checks that migration targets on the
// torus are exactly the four lattice neighbors, each hit with positive
// frequency.
func TestTorusNeighborsAre4Neighborhood(t *testing.T) {
	p := Params{Local: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive), Sites: 16, Topology: Torus}
	initial := make([]lv.State, 16)
	for d := range initial {
		initial[d] = lv.State{X0: 1, X1: 1}
	}
	sys, err := NewSystem(p, initial, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	const d = 5 // row 1, col 1 of the 4x4 torus
	want := map[int]bool{1: true, 9: true, 4: true, 6: true}
	seen := map[int]int{}
	for i := 0; i < 4000; i++ {
		v := sys.neighbor(d)
		if !want[v] {
			t.Fatalf("deme %d is not a lattice neighbor of %d", v, d)
		}
		seen[v]++
	}
	for v := range want {
		if seen[v] == 0 {
			t.Errorf("neighbor %d never sampled", v)
		}
	}
}

// TestTorusRunReachesConsensus runs the full spatial chain on a 3x3 torus.
func TestTorusRunReachesConsensus(t *testing.T) {
	p := Params{
		Local:     lv.Neutral(1, 1, 1, 0, lv.SelfDestructive),
		Sites:     9,
		Migration: 1,
		Topology:  Torus,
	}
	initial := make([]lv.State, 9)
	for d := range initial {
		initial[d] = lv.State{X0: 12, X1: 8}
	}
	out, err := Run(p, initial, rng.New(7), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Consensus {
		t.Fatal("no global consensus on the torus")
	}
	if !out.MajorityWon {
		t.Error("majority lost from a 60/40 split on every deme")
	}
}
