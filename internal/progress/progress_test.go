package progress

import (
	"strings"
	"sync"
	"testing"
	"time"

	"lvmajority/internal/stats"
)

func TestEmitNilHookIsSafe(t *testing.T) {
	var h Hook
	h.Emit(Event{Kind: KindPhase, Phase: "start"}) // must not panic
}

func TestTee(t *testing.T) {
	if Tee(nil, nil) != nil {
		t.Error("Tee of nil hooks should collapse to nil")
	}
	var a, b int
	h := Tee(nil, func(Event) { a++ }, func(Event) { b++ })
	h(Event{})
	h(Event{})
	if a != 2 || b != 2 {
		t.Errorf("tee delivered a=%d b=%d events, want 2 each", a, b)
	}
}

// TestThrottledMonotoneAndStale: trial events must come out strictly
// increasing in Done per stream, stale snapshots dropped, and other kinds
// passed through untouched.
func TestThrottledMonotoneAndStale(t *testing.T) {
	var got []Event
	h := Throttled(func(e Event) { got = append(got, e) }, 0)

	h(Event{Kind: KindTrials, Done: 5, Total: 100})
	h(Event{Kind: KindTrials, Done: 3, Total: 100}) // stale: out-of-order worker snapshot
	h(Event{Kind: KindTrials, Done: 5, Total: 100}) // duplicate
	h(Event{Kind: KindTrials, Done: 9, Total: 100})
	h(Event{Kind: KindPhase, Phase: "done"})               // non-trials passes through
	h(Event{Kind: KindTrials, Done: 2, Total: 50, N: 512}) // different stream (new point)

	var dones []int64
	for _, e := range got {
		if e.Kind == KindTrials && e.N == 0 {
			dones = append(dones, e.Done)
		}
	}
	if len(dones) != 2 || dones[0] != 5 || dones[1] != 9 {
		t.Errorf("throttled trial stream %v, want [5 9]", dones)
	}
	last := got[len(got)-1]
	if last.Kind != KindTrials || last.N != 512 || last.Done != 2 {
		t.Errorf("independent stream suppressed: %+v", last)
	}
}

// TestThrottledRateLimitKeepsFinal: within the rate-limit window only the
// budget-completing snapshot passes.
func TestThrottledRateLimitKeepsFinal(t *testing.T) {
	var got []int64
	h := Throttled(func(e Event) { got = append(got, e.Done) }, time.Hour)
	for d := int64(1); d <= 100; d++ {
		h(Event{Kind: KindTrials, Done: d, Total: 100})
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 100 {
		t.Errorf("rate-limited stream %v, want first and final snapshots only", got)
	}
}

func TestRendererLines(t *testing.T) {
	var sb strings.Builder
	h := Renderer(&sb)
	est := &stats.BernoulliEstimate{Successes: 90, Trials: 100, Lo: 0.82, Hi: 0.94}
	h(Event{Kind: KindPhase, Scope: "T1-SD", Phase: "start"})
	h(Event{Kind: KindTrials, Scope: "T1-SD", N: 1024, Delta: 40, Done: 500, Total: 2000, Wins: 400})
	h(Event{Kind: KindEstimate, Scope: "T1-SD", N: 1024, Delta: 40, Done: 2000, Total: 2000, Estimate: est})
	h(Event{Kind: KindProbeStart, Scope: "T1-SD", N: 1024, Delta: 40})
	h(Event{Kind: KindProbe, Scope: "T1-SD", N: 1024, Delta: 40, Estimate: est, Cached: true})
	h(Event{Kind: KindPoint, Scope: "T1-SD", N: 1024, Threshold: 42, Found: true})
	h(Event{Kind: KindPoint, Scope: "T1-SD", N: 2048})
	out := sb.String()
	for _, want := range []string{
		"T1-SD: start",
		"trials 500/2000 (running p=0.8000)",
		"estimate 0.9000 [0.8200, 0.9400] (90/100) after 2000/2000 trials",
		"probe n=1024 delta=40",
		"(cached)",
		"point n=1024 threshold=42",
		"point n=2048 threshold not found",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("renderer output missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 7 {
		t.Errorf("renderer wrote %d lines, want 7", lines)
	}
}

// TestBroadcasterReplayAndLive: a subscriber sees history then live events;
// Close terminates the channel.
func TestBroadcasterReplayAndLive(t *testing.T) {
	b := NewBroadcaster()
	b.Publish(Event{Kind: KindPhase, Phase: "queued"})
	b.Publish(Event{Kind: KindPhase, Phase: "running"})

	ch, cancel := b.Subscribe()
	defer cancel()
	b.Publish(Event{Kind: KindTrials, Done: 10, Total: 100})
	b.Publish(Event{Kind: KindPhase, Phase: "done"})
	b.Close()

	var phases []string
	var trials int
	for e := range ch {
		switch e.Kind {
		case KindPhase:
			phases = append(phases, e.Phase)
		case KindTrials:
			trials++
		}
	}
	want := []string{"queued", "running", "done"}
	if len(phases) != len(want) {
		t.Fatalf("phases %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases %v, want %v", phases, want)
		}
	}
	if trials != 1 {
		t.Errorf("saw %d trial events, want 1", trials)
	}
}

func TestBroadcasterSubscribeAfterClose(t *testing.T) {
	b := NewBroadcaster()
	b.Publish(Event{Kind: KindPhase, Phase: "done"})
	b.Close()
	b.Publish(Event{Kind: KindPhase, Phase: "after"}) // dropped: closed

	ch, cancel := b.Subscribe()
	defer cancel()
	var got []Event
	for e := range ch { // closed immediately after replay
		got = append(got, e)
	}
	if len(got) != 1 || got[0].Phase != "done" {
		t.Errorf("post-close subscription replayed %+v, want the pre-close history", got)
	}
}

func TestBroadcasterCancelReapsSubscriber(t *testing.T) {
	b := NewBroadcaster()
	ch, cancel := b.Subscribe()
	if b.Subscribers() != 1 {
		t.Fatalf("subscribers %d, want 1", b.Subscribers())
	}
	cancel()
	cancel() // idempotent
	if b.Subscribers() != 0 {
		t.Errorf("subscribers %d after cancel, want 0", b.Subscribers())
	}
	if _, ok := <-ch; ok {
		t.Error("cancelled subscription channel not closed")
	}
	b.Publish(Event{Kind: KindHeartbeat}) // must not panic or deliver
	b.Close()
}

// TestBroadcasterConcurrent exercises publish/subscribe/cancel/close under
// the race detector.
func TestBroadcasterConcurrent(t *testing.T) {
	b := NewBroadcaster()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Publish(Event{Kind: KindTrials, Done: int64(i)})
			}
		}()
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch, cancel := b.Subscribe()
			defer cancel()
			for range ch {
			}
		}()
	}
	var wgPub sync.WaitGroup
	wgPub.Add(1)
	go func() {
		defer wgPub.Done()
		time.Sleep(5 * time.Millisecond)
		b.Close()
	}()
	wg.Wait()
	wgPub.Wait()
}

// TestBroadcasterHistoryBounded: the replay buffer cannot grow without
// bound under a long event stream.
func TestBroadcasterHistoryBounded(t *testing.T) {
	b := NewBroadcaster()
	for i := 0; i < 10*historyLimit; i++ {
		b.Publish(Event{Kind: KindTrials, Done: int64(i)})
	}
	ch, cancel := b.Subscribe()
	defer cancel()
	b.Close()
	n := 0
	var last int64
	for e := range ch {
		n++
		last = e.Done
	}
	if n > historyLimit {
		t.Errorf("replayed %d events, want <= %d", n, historyLimit)
	}
	if last != 10*historyLimit-1 {
		t.Errorf("replay tail ends at %d, want the most recent event", last)
	}
}
