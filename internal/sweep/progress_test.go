package sweep

import (
	"reflect"
	"sync"
	"testing"

	"lvmajority/internal/progress"
)

// TestSweepUnchangedByProgressHook is the sweep-level determinism contract:
// results with a maximally chatty hook attached equal results without one,
// and the emitted stream is coherent (every event annotated with its point's
// N, one point event per grid entry, probe provenance matching the sweep's
// own counters).
func TestSweepUnchangedByProgressHook(t *testing.T) {
	base := Options{
		Grid:   []int{24, 32, 48, 64},
		Trials: 200,
		Seed:   9,
		Cache:  NewCache(),
	}
	quiet, err := Run(logisticProtocol{}, base)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var events []progress.Event
	chatty := base
	chatty.Cache = NewCache() // fresh cache: same cold start as the quiet run
	chatty.Progress = func(e progress.Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	loud, err := Run(logisticProtocol{}, chatty)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(quiet, loud) {
		t.Errorf("hook perturbed the sweep:\nquiet %+v\nloud  %+v", quiet, loud)
	}

	mu.Lock()
	defer mu.Unlock()
	points := map[int]progress.Event{}
	probeStarts, probes, cached := 0, 0, 0
	for _, e := range events {
		if e.N == 0 {
			t.Fatalf("event missing point annotation: %+v", e)
		}
		switch e.Kind {
		case progress.KindPoint:
			points[e.N] = e
		case progress.KindProbeStart:
			probeStarts++
		case progress.KindProbe:
			probes++
			if e.Cached {
				cached++
			}
			if e.Estimate == nil {
				t.Fatalf("probe event without estimate: %+v", e)
			}
		}
	}
	if len(points) != len(base.Grid) {
		t.Errorf("saw point events for %d sizes, want %d", len(points), len(base.Grid))
	}
	for _, pt := range loud.Points {
		ev, ok := points[pt.N]
		if !ok {
			t.Errorf("no point event for n=%d", pt.N)
			continue
		}
		if ev.Threshold != pt.Threshold || ev.Found != pt.Found {
			t.Errorf("point event %+v disagrees with result %+v", ev, pt)
		}
	}
	if probeStarts != loud.Probes || probes != loud.Probes {
		t.Errorf("probe events %d/%d, want one start and one settle per probe (%d)",
			probeStarts, probes, loud.Probes)
	}
	if cached != loud.CacheHits {
		t.Errorf("cached probe events %d, want %d", cached, loud.CacheHits)
	}
}

// TestSweepCachedProbesEmitProvenance: a warm re-run over a shared cache
// reports every probe as cached.
func TestSweepCachedProbesEmitProvenance(t *testing.T) {
	opts := Options{
		Grid:   []int{24, 32},
		Trials: 150,
		Seed:   5,
		Cache:  NewCache(),
	}
	first, err := Run(logisticProtocol{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var cached, fresh int
	opts.Progress = func(e progress.Event) {
		if e.Kind != progress.KindProbe {
			return
		}
		mu.Lock()
		if e.Cached {
			cached++
		} else {
			fresh++
		}
		mu.Unlock()
	}
	second, err := Run(logisticProtocol{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Curve(), second.Curve()) {
		t.Fatalf("warm re-run changed the curve")
	}
	if fresh != 0 || cached == 0 || cached != second.CacheHits {
		t.Errorf("warm re-run emitted %d fresh / %d cached probe events, want all %d cached",
			fresh, cached, second.CacheHits)
	}
}
