package experiment

import (
	"fmt"
	"strings"
	"testing"

	"lvmajority/internal/sweep"
)

// fmtSscan wraps fmt.Sscan for the fit-exponent extraction.
func fmtSscan(s string, v *float64) (int, error) { return fmt.Sscan(s, v) }

// TestExperimentSmokeShort keeps a thin end-to-end path through the
// harness alive under -short: one cheap experiment, run to completion with
// rendered tables. The heavy grids stay behind the non-short tests below
// and the Full config flag.
func TestExperimentSmokeShort(t *testing.T) {
	e, err := ByID("T1-INTRA")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(Config{Seed: 20240506, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 || len(tables[0].Rows) == 0 {
		t.Fatal("smoke experiment produced no rows")
	}
	var b strings.Builder
	if err := tables[0].Render(&b); err != nil {
		t.Fatal(err)
	}
}

// TestTable1SDCacheReplay asserts the Table-1 reproduction path is wired
// through the sweep engine's probe cache: a second run with the same
// configuration replays every threshold probe (zero fresh estimator calls)
// and produces identical rows.
func TestTable1SDCacheReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick T1-SD grid")
	}
	cache := sweep.NewCache()
	cfg := Config{Seed: 20240506, Workers: 2, Cache: cache}

	var log1 strings.Builder
	cfg.Log = &log1
	first, err := runTable1SD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probes := cache.Len()
	if probes == 0 {
		t.Fatal("first run recorded no probes in the cache")
	}

	var log2 strings.Builder
	cfg.Log = &log2
	second, err := runTable1SD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != probes {
		t.Errorf("second run grew the cache from %d to %d probes — not fully replayed", probes, cache.Len())
	}
	for _, line := range strings.Split(log2.String(), "\n") {
		if strings.Contains(line, "probes,") && !strings.Contains(line, " 0 fresh") {
			t.Errorf("second run issued fresh probes: %s", line)
		}
	}
	for i, tbl := range first {
		if fmt.Sprint(tbl.Rows) != fmt.Sprint(second[i].Rows) {
			t.Errorf("cached rerun changed table %q", tbl.Title)
		}
	}
}

// TestExpectedShapesQuick asserts the headline quantitative claims on the
// quick grids: the SD threshold exponent is far below 1/2 and the NSD
// exponent is near 1/2 (Table 1 row 1), which is the core reproduction
// target.
func TestExpectedShapesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	t.Parallel()
	cfg := Config{Seed: 99, Workers: 2}

	sdTables, err := runTable1SD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nsdTables, err := runTable1NSD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sdExp := fitExponent(t, sdTables)
	nsdExp := fitExponent(t, nsdTables)
	if sdExp > 0.35 {
		t.Errorf("SD threshold exponent = %v, want well below 0.5 (polylog)", sdExp)
	}
	if nsdExp < 0.4 || nsdExp > 0.65 {
		t.Errorf("NSD threshold exponent = %v, want ~0.5", nsdExp)
	}
	if nsdExp-sdExp < 0.2 {
		t.Errorf("separation too small: SD %v vs NSD %v", sdExp, nsdExp)
	}
}

// fitExponent extracts the exponent cell from a scaling-fit table produced
// by fitTable.
func fitExponent(t *testing.T, tables []*Table) float64 {
	t.Helper()
	for _, tbl := range tables {
		if !strings.Contains(tbl.Title, "scaling fit") {
			continue
		}
		if len(tbl.Rows) == 0 || len(tbl.Rows[0]) == 0 {
			t.Fatalf("fit table %q empty", tbl.Title)
		}
		var v float64
		if _, err := fmtSscan(tbl.Rows[0][0], &v); err != nil {
			t.Fatalf("parsing exponent from %q: %v", tbl.Rows[0][0], err)
		}
		return v
	}
	t.Fatal("no scaling-fit table found")
	return 0
}
