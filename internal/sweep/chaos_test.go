package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lvmajority/internal/faultpoint"
)

// chaosOpts is the sweep configuration every chaos scenario runs: small
// enough to be fast, large enough to cross several probe boundaries.
func chaosOpts(cache *Cache) Options {
	return Options{Grid: testGrid, Target: 0.9, Trials: 300, Seed: 21, Workers: 2, Cache: cache}
}

// chaosReference computes the uninterrupted sweep once per test: the
// thresholds every faulted variant must still produce.
func chaosReference(t *testing.T) Result {
	t.Helper()
	ref, err := Run(logisticProtocol{}, chaosOpts(NewCache()))
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func sameThresholds(t *testing.T, got, want Result, scenario string) {
	t.Helper()
	if len(got.Points) != len(want.Points) {
		t.Fatalf("%s: %d points, want %d", scenario, len(got.Points), len(want.Points))
	}
	for i, pt := range got.Points {
		if pt.Threshold != want.Points[i].Threshold || pt.Found != want.Points[i].Found {
			t.Errorf("%s: n=%d threshold=%d found=%v, want threshold=%d found=%v",
				scenario, pt.N, pt.Threshold, pt.Found, want.Points[i].Threshold, want.Points[i].Found)
		}
	}
}

// TestChaosKillResumeByteIdentical is the crash-safety oracle: a sweep
// killed at an arbitrary probe-flush boundary (simulated by an injected
// panic at the probe-flush site, recovered by the sweep) leaves a readable
// checkpoint on disk, and resuming from that checkpoint reproduces the
// uninterrupted sweep exactly — same thresholds, and a byte-identical
// final cache file.
func TestChaosKillResumeByteIdentical(t *testing.T) {
	ref := chaosReference(t)

	// The uninterrupted persisted run pins the expected file bytes.
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	refCache, err := OpenCache(refPath)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := Run(logisticProtocol{}, chaosOpts(refCache))
	if err != nil {
		t.Fatal(err)
	}
	sameThresholds(t, refRes, ref, "persisted reference")
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	// Kill at several distinct checkpoint boundaries, early and late.
	for _, killAt := range []int{0, 3, 9, 20} {
		t.Run(fmt.Sprintf("killAt=%d", killAt), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "probes.json")
			cache, err := OpenCache(path)
			if err != nil {
				t.Fatal(err)
			}
			faultpoint.Arm(faultpoint.NewPlan(faultpoint.Rule{
				Site: faultpoint.ProbeFlush, After: killAt, Mode: faultpoint.ModePanic, Msg: "kill -9",
			}))
			_, err = Run(logisticProtocol{}, chaosOpts(cache))
			faultpoint.Disarm()
			if err == nil {
				t.Skip("sweep finished before the kill point; grid too small for this boundary")
			}

			// "Restart": reopen the checkpoint from disk — it must load
			// cleanly (atomic writes mean no torn file) — and resume.
			resumed, err := OpenCache(path)
			if err != nil {
				t.Fatalf("checkpoint unreadable after kill: %v", err)
			}
			if q := resumed.Quarantined(); q != "" {
				t.Fatalf("checkpoint quarantined to %s after kill; atomic write failed", q)
			}
			res, err := Run(logisticProtocol{}, chaosOpts(resumed))
			if err != nil {
				t.Fatalf("resumed sweep failed: %v", err)
			}
			sameThresholds(t, res, ref, "resumed sweep")
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, refBytes) {
				t.Errorf("resumed cache file differs from uninterrupted run (%d vs %d bytes)", len(got), len(refBytes))
			}
		})
	}
}

// TestChaosWriteErrorsDegradeNotCorrupt: when every cache write fails even
// after retries, the sweep still completes with correct thresholds — the
// cache degrades to memory-only instead of failing the run or leaving a
// torn file behind.
func TestChaosWriteErrorsDegradeNotCorrupt(t *testing.T) {
	ref := chaosReference(t)
	path := filepath.Join(t.TempDir(), "probes.json")
	cache, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.Arm(faultpoint.NewPlan(faultpoint.Rule{
		Site: faultpoint.CacheWrite, After: 0, Times: 1 << 20, Mode: faultpoint.ModeError, Msg: "disk full",
	}))
	defer faultpoint.Disarm()

	var lines []string
	opts := chaosOpts(cache)
	opts.Log = func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	res, err := Run(logisticProtocol{}, opts)
	if err != nil {
		t.Fatalf("sweep failed on persistence errors: %v", err)
	}
	sameThresholds(t, res, ref, "degraded sweep")
	if cache.Degraded() == nil {
		t.Error("cache did not degrade after exhausted write retries")
	}
	if len(lines) == 0 {
		t.Error("degradation was not logged")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("failed writes left a cache file behind (stat err %v)", err)
	}
}

// TestChaosCorruptCacheQuarantined: damaged cache files — invalid JSON and
// valid JSON with a checksum mismatch — are quarantined at open and the
// sweep recomputes from scratch, never replaying damaged probes.
func TestChaosCorruptCacheQuarantined(t *testing.T) {
	ref := chaosReference(t)

	t.Run("invalid-json", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "probes.json")
		if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		cache, err := OpenCache(path)
		if err != nil {
			t.Fatalf("corrupt cache open returned error: %v", err)
		}
		if cache.Quarantined() == "" || cache.Len() != 0 {
			t.Fatalf("corrupt file not quarantined (quarantine=%q len=%d)", cache.Quarantined(), cache.Len())
		}
		if data, err := os.ReadFile(path + ".corrupt"); err != nil || string(data) != "{torn" {
			t.Errorf("quarantined bytes not preserved: %q, %v", data, err)
		}
		res, err := Run(logisticProtocol{}, chaosOpts(cache))
		if err != nil {
			t.Fatal(err)
		}
		sameThresholds(t, res, ref, "post-quarantine sweep")
	})

	t.Run("checksum-mismatch", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "probes.json")
		cache, err := OpenCache(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(logisticProtocol{}, chaosOpts(cache)); err != nil {
			t.Fatal(err)
		}
		// Flip estimate bytes without breaking the JSON: parseable but
		// inconsistent with the recorded checksum.
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tampered := bytes.Replace(data, []byte(`"Successes":`), []byte(`"Successes":1`), 1)
		if bytes.Equal(tampered, data) {
			t.Fatal("tamper pattern not found; update the test to match the encoding")
		}
		if err := os.WriteFile(path, tampered, 0o644); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenCache(path)
		if err != nil {
			t.Fatalf("tampered cache open returned error: %v", err)
		}
		if reopened.Quarantined() == "" || reopened.Len() != 0 {
			t.Errorf("tampered file not quarantined (quarantine=%q len=%d)", reopened.Quarantined(), reopened.Len())
		}
		res, err := Run(logisticProtocol{}, chaosOpts(reopened))
		if err != nil {
			t.Fatal(err)
		}
		sameThresholds(t, res, ref, "post-tamper sweep")
	})
}

// TestChaosReadErrorsStartEmpty: a cache file that cannot be read at all
// (I/O errors through every retry) yields an empty cache and a correct
// sweep — degraded persistence is never allowed to become a wrong result.
func TestChaosReadErrorsStartEmpty(t *testing.T) {
	ref := chaosReference(t)
	path := filepath.Join(t.TempDir(), "probes.json")
	cache, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(logisticProtocol{}, chaosOpts(cache)); err != nil {
		t.Fatal(err)
	}

	faultpoint.Arm(faultpoint.NewPlan(faultpoint.Rule{
		Site: faultpoint.CacheRead, After: 0, Times: 1 << 20, Mode: faultpoint.ModeError, Msg: "EIO",
	}))
	reopened, err := OpenCache(path)
	faultpoint.Disarm()
	if err != nil {
		t.Fatalf("unreadable cache open returned error: %v", err)
	}
	if reopened.Len() != 0 {
		t.Errorf("unreadable cache loaded %d entries", reopened.Len())
	}
	res, err := Run(logisticProtocol{}, chaosOpts(reopened))
	if err != nil {
		t.Fatal(err)
	}
	sameThresholds(t, res, ref, "post-read-failure sweep")
}
