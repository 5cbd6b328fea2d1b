package mc

import (
	"fmt"
	"runtime/debug"

	"lvmajority/internal/faultpoint"
)

// TrialPanicError is the structured failure a pool returns when a
// replicate (or a worker's engine construction) panics. The pool never
// crashes the process on an engine panic: the panic is recovered at the
// replicate boundary, annotated with enough context to reproduce it —
// the trial index and the root seed pin the exact rng stream — and the
// run fails like any other errored run, with the remaining workers
// draining cleanly.
type TrialPanicError struct {
	// Trial is the replicate index that panicked (the first index of the
	// block for block sources), or -1 when worker setup itself panicked.
	Trial int
	// Seed is the run's root seed; rng.NewStream(Seed, Trial) is the
	// panicking replicate's stream.
	Seed uint64
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at the recovery point.
	Stack string
}

func (e *TrialPanicError) Error() string {
	if e.Trial < 0 {
		return fmt.Sprintf("mc: panic during worker setup (seed %d): %v", e.Seed, e.Value)
	}
	return fmt.Sprintf("mc: panic in trial %d (seed %d): %v", e.Trial, e.Seed, e.Value)
}

// Unwrap exposes a panic value that was itself an error, so callers can
// errors.Is/As through the recovery boundary.
func (e *TrialPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// recovered converts a recover() value into a *TrialPanicError.
func recovered(trial int, seed uint64, v any) *TrialPanicError {
	return &TrialPanicError{Trial: trial, Seed: seed, Value: v, Stack: string(debug.Stack())}
}

// callSpan runs one span inside the panic-isolation boundary; the span's
// first trial index identifies a failure, which for a trial-at-a-time
// source is the trial itself. The trial-start fault point sits inside the
// boundary, so an injected panic exercises exactly the recovery path a real
// engine panic takes.
func callSpan(fn spanFunc, seed uint64, lo, hi int) (wins int, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = recovered(lo, seed, v)
		}
	}()
	if err := faultpoint.Hit(faultpoint.TrialStart); err != nil {
		return 0, err
	}
	return fn(lo, hi)
}

// newWorkerSafe isolates panics in per-worker setup (engine construction
// allocates model state that can legitimately validate-and-panic).
func newWorkerSafe[F any](newWorker func() (F, error), seed uint64) (fn F, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = recovered(-1, seed, v)
		}
	}()
	return newWorker()
}
