// Package faultpoint is the deterministic fault-injection layer of the
// execution stack. Production code names the places where the real world
// can fail — a trial about to run, a probe cache about to flush, a journal
// file about to be written — by calling Hit at a Site; the chaos tests arm
// a Plan that makes chosen hits fail (with an error or a panic) at exact,
// reproducible points, and the robustness suites prove the stack degrades
// gracefully: recovered panics become failed runs, interrupted sweeps
// resume byte-identically, injected I/O errors are retried and then
// quarantined, and results are never silently wrong.
//
// The layer is free when unarmed: Hit is one atomic pointer load against
// nil, no allocation, no lock — safe to leave in pool loops and flush
// paths permanently. Arming is process-global and test-only by convention;
// nothing in the repository arms a plan outside _test files.
//
// Determinism: a Rule triggers on hit counts, and every site counts its
// hits in one atomic counter, so a plan injects exactly the configured
// number of faults regardless of scheduling. For sites hit under a lock or
// from a single goroutine (the flush and journal sites) the *position* of
// the fault is exact as well; for concurrently hit sites (trial-start) the
// count is exact while the affected trial index is scheduling-dependent —
// which is precisely the situation a worker fleet must tolerate.
package faultpoint

import (
	"fmt"
	"sync/atomic"
)

// Site names one injection point in production code.
type Site string

// The sites the execution stack declares. Adding a site is cheap; every
// site must appear in the DESIGN.md §8 fault matrix with the chaos test
// that pins its behaviour.
const (
	// TrialStart fires at the start of every Monte-Carlo replicate (and
	// every lockstep block) inside the internal/mc pool, inside the
	// panic-isolation boundary — an injected panic here is recovered into
	// a mc.TrialPanicError like any engine panic.
	TrialStart Site = "trial-start"
	// ProbeFlush fires when the sweep probe cache checkpoints itself at a
	// probe boundary. A panic here simulates a process killed mid-sweep
	// with only the checkpointed probes on disk.
	ProbeFlush Site = "probe-flush"
	// CacheRead fires when a persisted probe cache file is read.
	CacheRead Site = "cache-read"
	// CacheWrite fires on every attempt to persist the probe cache.
	CacheWrite Site = "cache-write"
	// JournalWrite fires on every attempt to persist a journal entry
	// (durable.Journal.Put): the serve run journal and the fabric
	// coordinator's worker registrations.
	JournalWrite Site = "journal-write"
	// ShardDispatch fires when the fabric coordinator is about to send a
	// trial-block shard to a worker. An injected error simulates a worker
	// that became unreachable between pick and dispatch; the coordinator
	// must evict it and reassign the shard.
	ShardDispatch Site = "shard-dispatch"
	// ShardResult fires when the coordinator is about to accept a worker's
	// shard result. An injected error simulates a torn or corrupt response;
	// the shard must be reassigned, never partially counted.
	ShardResult Site = "shard-result"
	// WorkerHeartbeat fires when a fabric worker is about to send a
	// heartbeat. An injected error simulates a dropped heartbeat; enough of
	// them expire the worker's lease on the coordinator.
	WorkerHeartbeat Site = "worker-heartbeat"
)

// Mode selects what an armed rule does when it triggers.
type Mode int

const (
	// ModeError makes Hit return an *InjectedError.
	ModeError Mode = iota
	// ModePanic makes Hit panic with an InjectedPanic value.
	ModePanic
)

// Rule arms one site: hits numbered [After, After+Times) at Site trigger
// the rule's Mode (hit numbering is 0-based and per-site). Times <= 0
// means 1.
type Rule struct {
	Site  Site
	After int
	Times int
	Mode  Mode
	// Msg annotates the injected error or panic, for test assertions.
	Msg string
}

// armed is one rule with its live hit window.
type armed struct {
	rule Rule
	lo   int64
	hi   int64
}

// Plan is a compiled set of rules sharing per-site hit counters. Plans are
// immutable after NewPlan; the counters advance atomically as sites are
// hit.
type Plan struct {
	rules    map[Site][]*armed
	counters map[Site]*atomic.Int64
	// Triggered counts injected faults across the plan's lifetime.
	triggered atomic.Int64
}

// NewPlan compiles rules into an armable plan.
func NewPlan(rules ...Rule) *Plan {
	p := &Plan{rules: make(map[Site][]*armed), counters: make(map[Site]*atomic.Int64)}
	for _, r := range rules {
		times := r.Times
		if times <= 0 {
			times = 1
		}
		p.rules[r.Site] = append(p.rules[r.Site], &armed{
			rule: r,
			lo:   int64(r.After),
			hi:   int64(r.After + times),
		})
		if p.counters[r.Site] == nil {
			p.counters[r.Site] = new(atomic.Int64)
		}
	}
	return p
}

// Triggered returns how many faults the plan has injected so far.
func (p *Plan) Triggered() int64 { return p.triggered.Load() }

// Hits returns how many times site has been hit while this plan was armed.
func (p *Plan) Hits(site Site) int64 {
	c := p.counters[site]
	if c == nil {
		return 0
	}
	return c.Load()
}

// active is the process-global armed plan; nil when disarmed, which is the
// permanent production state.
var active atomic.Pointer[Plan]

// Arm makes p the active plan. Tests must pair it with Disarm (defer
// Disarm() immediately after Arm).
func Arm(p *Plan) { active.Store(p) }

// Disarm deactivates fault injection; every Hit is a nil check again.
func Disarm() { active.Store(nil) }

// Armed reports whether a plan is active.
func Armed() bool { return active.Load() != nil }

// InjectedError is the error Hit returns for a triggered ModeError rule.
type InjectedError struct {
	Site Site
	Msg  string
}

func (e *InjectedError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("faultpoint: injected fault at %s: %s", e.Site, e.Msg)
	}
	return fmt.Sprintf("faultpoint: injected fault at %s", e.Site)
}

// InjectedPanic is the value Hit panics with for a triggered ModePanic
// rule.
type InjectedPanic struct {
	Site Site
	Msg  string
}

func (p InjectedPanic) String() string {
	if p.Msg != "" {
		return fmt.Sprintf("faultpoint: injected panic at %s: %s", p.Site, p.Msg)
	}
	return fmt.Sprintf("faultpoint: injected panic at %s", p.Site)
}

// Hit reports the fault injected at site, if any: nil always when no plan
// is armed (the production fast path — one atomic load), an *InjectedError
// for a triggered ModeError rule, and a panic carrying an InjectedPanic
// for a triggered ModePanic rule. Counting is per-site and atomic, so a
// plan injects exactly its configured number of faults under any
// scheduling.
func Hit(site Site) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.hit(site)
}

// hit advances site's counter and evaluates the site's rules against the
// hit number. It is split from Hit so the unarmed path stays trivially
// inlinable.
func (p *Plan) hit(site Site) error {
	rules := p.rules[site]
	if len(rules) == 0 {
		return nil
	}
	n := p.counters[site].Add(1) - 1
	for _, a := range rules {
		if n < a.lo || n >= a.hi {
			continue
		}
		p.triggered.Add(1)
		if a.rule.Mode == ModePanic {
			panic(InjectedPanic{Site: site, Msg: a.rule.Msg})
		}
		return &InjectedError{Site: site, Msg: a.rule.Msg}
	}
	return nil
}
