package crn

import (
	"errors"
	"testing"

	"lvmajority/internal/rng"
)

// engineLVNetwork is the self-destructive LV chain in the text format,
// used to drive every engine through the same model.
const engineLVNetwork = `
species: X0 X1
X0 -> 2 X0 @ 1
X1 -> 2 X1 @ 1
X0 -> 0 @ 1
X1 -> 0 @ 1
X0 + X1 -> 0 @ 0.5
X1 + X0 -> 0 @ 0.5
`

func lvConsensus(state []int) bool { return state[0] == 0 || state[1] == 0 }

// engineCase is one engine configuration under conformance test.
type engineCase struct {
	name    string
	engine  string
	timed   bool
	initial []int
}

var engineCases = []engineCase{
	{"direct", EngineDirect, true, []int{24, 16}},
	{"jump", EngineDirect, false, []int{24, 16}},
	{"leap", EngineLeap, true, []int{360, 240}},
}

func (c engineCase) make(t *testing.T, src *rng.Source) Engine {
	t.Helper()
	net, err := Parse(engineLVNetwork)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(net, c.initial, c.engine, c.timed, src)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// engineTrace records the observable behaviour of one manual run.
type engineTrace struct {
	events []int
	states [][]int
	times  []float64

	finalSteps int
	finalTime  float64
	finalState []int
	absorbed   bool
}

// engineTracePrefix caps the per-step recording; the final summary still
// covers the whole run.
const engineTracePrefix = 2000

// runEngineTrace steps e by hand to consensus, checking the step-local
// invariants, and records the observable sequence.
func runEngineTrace(t *testing.T, e Engine, timed bool) engineTrace {
	t.Helper()
	var tr engineTrace
	if e.Steps() != 0 || e.Time() != 0 {
		t.Fatalf("fresh engine reports steps=%d time=%v", e.Steps(), e.Time())
	}
	stateLen := len(e.StateView())
	for call := 0; call < 500_000 && !lvConsensus(e.StateView()); call++ {
		prevSteps, prevTime := e.Steps(), e.Time()
		ev, err := e.Step()
		if errors.Is(err, ErrExhausted) {
			tr.absorbed = true
			break
		}
		if err != nil {
			t.Fatalf("engine failed after %d steps: %v", e.Steps(), err)
		}
		if e.Steps() <= prevSteps {
			t.Fatalf("Steps not increasing: %d -> %d", prevSteps, e.Steps())
		}
		if e.Time() < prevTime || (timed && e.Time() == prevTime) || (!timed && e.Time() != 0) {
			t.Fatalf("time %v -> %v on a timed=%v engine", prevTime, e.Time(), timed)
		}
		state := e.StateView()
		if len(state) != stateLen {
			t.Fatalf("state length changed: %d -> %d", stateLen, len(state))
		}
		for i, v := range state {
			if v < 0 {
				t.Fatalf("negative count %d at state[%d] after %d steps", v, i, e.Steps())
			}
		}
		if len(tr.events) < engineTracePrefix {
			tr.events = append(tr.events, ev)
			tr.states = append(tr.states, append([]int(nil), state...))
			tr.times = append(tr.times, e.Time())
		}
	}
	if !tr.absorbed && !lvConsensus(e.StateView()) {
		t.Fatal("run reached neither consensus nor absorption")
	}
	tr.finalSteps = e.Steps()
	tr.finalTime = e.Time()
	tr.finalState = append([]int(nil), e.StateView()...)
	return tr
}

func equalEngineTraces(t *testing.T, name string, a, b engineTrace) {
	t.Helper()
	if a.absorbed != b.absorbed || a.finalSteps != b.finalSteps || a.finalTime != b.finalTime {
		t.Fatalf("%s: final (absorbed, steps, time) differ: (%v, %d, %v) vs (%v, %d, %v)",
			name, a.absorbed, a.finalSteps, a.finalTime, b.absorbed, b.finalSteps, b.finalTime)
	}
	if len(a.events) != len(b.events) {
		t.Fatalf("%s: recorded %d vs %d events", name, len(a.events), len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] || a.times[i] != b.times[i] {
			t.Fatalf("%s: step %d differs: event %d@%v vs %d@%v",
				name, i, a.events[i], a.times[i], b.events[i], b.times[i])
		}
		for j := range a.states[i] {
			if a.states[i][j] != b.states[i][j] {
				t.Fatalf("%s: step %d state differs: %v vs %v", name, i, a.states[i], b.states[i])
			}
		}
	}
	for j := range a.finalState {
		if a.finalState[j] != b.finalState[j] {
			t.Fatalf("%s: final state differs: %v vs %v", name, a.finalState, b.finalState)
		}
	}
}

// TestEngineConformance checks the Engine invariants — monotone time,
// step counting, state sanity, the event code, and Reset reproducibility
// under a fixed seed — against every engine and clock.
func TestEngineConformance(t *testing.T) {
	const seed = 7
	for _, c := range engineCases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			e := c.make(t, rng.New(seed))
			first := runEngineTrace(t, e, c.timed)
			for _, ev := range first.events {
				if (c.engine == EngineLeap) != (ev == -1) {
					t.Fatalf("event code %d from engine %q", ev, c.engine)
				}
			}

			// Reset with the same stream must reproduce the run exactly.
			if err := e.Reset(c.initial, rng.New(seed)); err != nil {
				t.Fatal(err)
			}
			equalEngineTraces(t, "reset replay", first, runEngineTrace(t, e, c.timed))

			// A fresh engine on the same stream must match the Reset one.
			equalEngineTraces(t, "fresh construction", first, runEngineTrace(t, c.make(t, rng.New(seed)), c.timed))

			// A different stream must (overwhelmingly likely) diverge.
			if err := e.Reset(c.initial, rng.New(seed+1)); err != nil {
				t.Fatal(err)
			}
			other := runEngineTrace(t, e, c.timed)
			if other.finalSteps == first.finalSteps && other.finalTime == first.finalTime &&
				other.finalState[0] == first.finalState[0] && other.finalState[1] == first.finalState[1] {
				t.Error("different seeds produced identical runs")
			}
		})
	}
}

// TestEngineResetReuseAllocationFree audits Reset buffer reuse: after one
// warm-up run (which may materialize lazy buffers, e.g. the tau-leap
// fallback simulator), Reset plus a steady-state stepping loop must not
// allocate. This is what lets a replicated batch reuse one engine per
// worker without per-replicate garbage.
func TestEngineResetReuseAllocationFree(t *testing.T) {
	for _, c := range engineCases {
		t.Run(c.name, func(t *testing.T) {
			e := c.make(t, rng.New(3))
			if _, err := Run(e, lvConsensus, 2000, 0); err != nil {
				t.Fatal(err)
			}
			src := rng.New(0)
			seed := uint64(0)
			allocs := testing.AllocsPerRun(10, func() {
				seed++
				src.Reseed(seed)
				if err := e.Reset(c.initial, src); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 300; i++ {
					if _, err := e.Step(); err != nil {
						break
					}
				}
			})
			if allocs != 0 {
				t.Errorf("Reset + steady-state stepping allocated %v times per run, want 0", allocs)
			}
		})
	}
}

// TestEngineConformanceViaRun drives every engine through Run: a run must
// end classified, Run's step count must match the engine's, and a step
// limit must hold — exactly, except that a tau-leap's fallback batch may
// overshoot it.
func TestEngineConformanceViaRun(t *testing.T) {
	for _, c := range engineCases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			e := c.make(t, rng.New(11))
			res, err := Run(e, lvConsensus, 5_000_000, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Absorbed && !res.Stopped {
				t.Fatalf("run hit the step limit: %+v", res)
			}
			if res.Steps != e.Steps() {
				t.Errorf("result steps %d != engine steps %d", res.Steps, e.Steps())
			}

			if err := e.Reset(c.initial, rng.New(11)); err != nil {
				t.Fatal(err)
			}
			res, err = Run(e, nil, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Steps < 1 || (res.Steps > 3 && c.engine != EngineLeap) {
				t.Errorf("maxSteps=3 run took %d steps", res.Steps)
			}
		})
	}
}

func TestNewEngineUnknownName(t *testing.T) {
	net := deathNetwork(t, 1)
	for _, name := range []string{"warp", "nrm"} {
		if _, err := NewEngine(net, []int{1}, name, false, rng.New(1)); err == nil {
			t.Errorf("unknown engine %q accepted", name)
		}
	}
}

// newLVRunEngine is the timed direct-method engine on the
// self-destructive LV chain from (30, 20), for the Run rule tests.
func newLVRunEngine(t *testing.T, seed uint64) Engine {
	t.Helper()
	return engineCase{"direct", EngineDirect, true, []int{30, 20}}.make(t, rng.New(seed))
}

func TestRunStopsAtConsensus(t *testing.T) {
	e := newLVRunEngine(t, 1)
	res, err := Run(e, lvConsensus, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatalf("run did not stop at consensus: %+v", res)
	}
	if !lvConsensus(e.StateView()) {
		t.Errorf("stopped in a non-consensus state %v", e.StateView())
	}
	if res.Steps == 0 || e.Time() <= 0 {
		t.Errorf("implausible result %+v at time %v", res, e.Time())
	}
}

func TestRunHonorsMaxSteps(t *testing.T) {
	e := newLVRunEngine(t, 2)
	res, err := Run(e, nil, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 10 || res.Stopped || res.Absorbed {
		t.Errorf("maxSteps run = %+v, want exactly 10 plain steps", res)
	}
}

func TestRunHonorsMaxTime(t *testing.T) {
	e := newLVRunEngine(t, 3)
	res, err := Run(e, nil, 0, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped || res.Absorbed {
		t.Errorf("time-limited run misclassified: %+v", res)
	}
	if e.Time() < 0.25 {
		t.Errorf("run ended at time %v before the limit", e.Time())
	}
}

func TestRunImmediateStop(t *testing.T) {
	e := newLVRunEngine(t, 4)
	res, err := Run(e, func([]int) bool { return true }, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.Steps != 0 {
		t.Errorf("immediate stop produced %+v", res)
	}
}
