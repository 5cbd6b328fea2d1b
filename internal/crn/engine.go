package crn

import (
	"errors"
	"fmt"

	"lvmajority/internal/rng"
)

// The engine names NewEngine accepts; "" selects EngineDirect.
const (
	EngineDirect = "direct"
	EngineLeap   = "leap"
)

// Engine is the face the package's two simulators share — Simulator (the
// direct method, exact) and LeapSimulator (tau-leaping, approximate) — so
// that Run drives either and a replicated batch can reuse one per worker
// through Reset. An Engine is not safe for concurrent use.
type Engine interface {
	// Step fires one event and returns the fired reaction, or -1 for a
	// tau-leap, which fires many channels at once. It returns ErrExhausted,
	// leaving the state unchanged, when the chain is absorbed.
	Step() (int, error)
	// Steps counts the reactions fired since construction or Reset; a
	// tau-leap counts one per leap and one per exact fallback reaction.
	Steps() int
	// Time is the simulated continuous time; the direct method's jump
	// chain keeps it at zero.
	Time() float64
	// StateView returns the live state, valid until the next Step or Reset.
	StateView() []int
	// Reset restarts the engine from initial on a fresh stream, reusing
	// its buffers.
	Reset(initial []int, src *rng.Source) error
}

// NewEngine builds the simulator an engine name selects: "" or "direct"
// for the direct method, "leap" for tau-leaping with default options.
// timed selects the direct method's clock — the continuous-time chain
// instead of the jump chain, which draws no holding times; tau-leaping
// always tracks continuous time.
func NewEngine(net *Network, initial []int, engine string, timed bool, src *rng.Source) (Engine, error) {
	switch engine {
	case "", EngineDirect:
		sim, err := NewSimulator(net, initial, src)
		if err != nil {
			return nil, err
		}
		sim.timed = timed
		return sim, nil
	case EngineLeap:
		return NewLeapSimulator(net, initial, src, LeapOptions{})
	default:
		return nil, fmt.Errorf("crn: unknown engine %q (want direct or leap)", engine)
	}
}

// RunResult summarizes a Run invocation.
type RunResult struct {
	// Steps is the number of reactions fired during this Run call.
	Steps int
	// Absorbed reports whether the chain hit zero total propensity.
	Absorbed bool
	// Stopped reports whether the stop predicate ended the run.
	Stopped bool
}

// Run advances e until the stop predicate holds, the chain is absorbed,
// maxSteps reactions have fired during this call, or e's time reaches
// maxTime (maxSteps <= 0 and maxTime <= 0 mean no limit). The predicate
// sees the live state before the first event and after each one, and must
// not modify or retain it. A tau-leap can overshoot maxSteps, since one
// Step counts every fallback reaction it fires.
func Run(e Engine, stop func(state []int) bool, maxSteps int, maxTime float64) (RunResult, error) {
	var res RunResult
	start := e.Steps()
	if stop != nil && stop(e.StateView()) {
		res.Stopped = true
		return res, nil
	}
	for (maxSteps <= 0 || e.Steps()-start < maxSteps) && (maxTime <= 0 || e.Time() < maxTime) {
		if _, err := e.Step(); err != nil {
			res.Steps = e.Steps() - start
			if !errors.Is(err, ErrExhausted) {
				return res, err
			}
			res.Absorbed = true
			return res, nil
		}
		if stop != nil && stop(e.StateView()) {
			res.Stopped = true
			break
		}
	}
	res.Steps = e.Steps() - start
	return res, nil
}
