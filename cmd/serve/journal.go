// Journal: crash-safe accounting of queued and running runs.
//
// With -journal DIR, the server persists one small JSON file per live run
// (run-<id>.json) from submission until the run reaches a terminal status.
// On restart the directory is replayed: runs that were still queued are
// re-enqueued with their original ID, spec and submission time; runs that
// were mid-execution cannot be resumed (their engine state died with the
// process) and are registered as failed with the "interrupted" detail, so a
// client polling GET /v1/runs/{id} sees an honest terminal state instead of
// a 404. Journal I/O is best-effort: a write failure is logged and the run
// proceeds — the journal must never make a healthy server lose work.
package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"lvmajority/internal/durable"
	"lvmajority/internal/progress"
	"lvmajority/internal/scenario"
)

// journalEntry is the persisted view of a live run: exactly the fields needed
// to re-register it after a restart.
type journalEntry struct {
	ID        int           `json:"id"`
	Status    runStatus     `json:"status"`
	Spec      scenario.Spec `json:"spec"`
	Submitted string        `json:"submitted,omitempty"`
	Started   string        `json:"started,omitempty"`
}

// journalRecord persists (or refreshes) the entry for a live run. Callers
// hold the server's mu, which serializes writes per run ID.
func (s *server) journalRecord(r *run) {
	s.journal.Put(strconv.Itoa(r.ID), journalEntry{
		ID: r.ID, Status: r.Status, Spec: r.Spec,
		Submitted: r.Submitted, Started: r.Started,
	})
}

// attachJournal enables journaling under dir and replays any entries a
// previous process left behind. It must be called after newServer and before
// the listener accepts traffic: recovered queued runs go straight onto the
// worker queue. Unreadable entries are quarantined (renamed *.corrupt) and
// logged, never fatal — a half-written file from a crash mid-write must not
// keep the server from starting.
func (s *server) attachJournal(dir string) error {
	j, err := durable.OpenJournal(dir, "run-", s.logger)
	if err != nil {
		return err
	}
	var entries []journalEntry
	err = j.Replay(func(_ string, data []byte) error {
		var e journalEntry
		if err := json.Unmarshal(data, &e); err != nil {
			return err
		}
		if e.ID <= 0 {
			return fmt.Errorf("non-positive run id %d", e.ID)
		}
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return err
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].ID < entries[b].ID })

	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
	for _, e := range entries {
		if _, exists := s.runs[e.ID]; exists {
			s.logger.Printf("journal: entry for run %d collides with a live run; dropping", e.ID)
			j.Remove(strconv.Itoa(e.ID))
			continue
		}
		if e.ID >= s.nextID {
			s.nextID = e.ID + 1
		}
		r := &run{ID: e.ID, Spec: e.Spec, Submitted: e.Submitted, Started: e.Started, events: progress.NewBroadcaster()}
		switch e.Status {
		case statusQueued:
			// The previous process never started this run, so re-running it
			// is safe and loses nothing: the spec is deterministic in itself.
			r.Status = statusQueued
			select {
			case s.queue <- r:
				s.runs[r.ID] = r
				s.order = append(s.order, r.ID)
				s.journalRecord(r)
				r.events.Publish(progress.Event{Kind: progress.KindPhase, Scope: runScope(r.ID), Phase: string(statusQueued)})
				s.logger.Printf("journal: re-enqueued run %d (%s task)", r.ID, r.Spec.Task)
				continue
			default:
				// A shrunken queue cannot hold the backlog; fall through to
				// an honest terminal state rather than blocking startup.
				s.registerInterruptedLocked(r, "journal recovery: queue full")
			}
		default:
			// Running (or any unknown status from a newer format): the
			// engine state died with the old process, so the only honest
			// outcome is failed(interrupted).
			s.registerInterruptedLocked(r, "interrupted by server restart")
		}
		j.Remove(strconv.Itoa(r.ID))
	}
	if n := len(entries); n > 0 {
		s.logger.Printf("journal: recovered %d entr%s from %s", n, map[bool]string{true: "y", false: "ies"}[n == 1], dir)
	}
	return nil
}

// registerInterruptedLocked registers a recovered run in a terminal failed
// state with the interrupted detail. Callers hold s.mu.
func (s *server) registerInterruptedLocked(r *run, reason string) {
	r.Status = statusFailed
	r.Error = reason
	r.Detail = progress.DetailInterrupted
	r.Finished = now()
	s.runs[r.ID] = r
	s.order = append(s.order, r.ID)
	r.events.Publish(progress.Event{Kind: progress.KindPhase, Scope: runScope(r.ID), Phase: string(statusFailed), Err: r.Error, Detail: r.Detail})
	r.events.Close()
	s.logger.Printf("journal: run %d marked failed (%s)", r.ID, reason)
}
