// Package report turns experiment runs into durable, machine-readable
// artifacts. It is the repository's results pipeline:
//
//   - A Manifest is the canonical record of one experiment run: full
//     provenance (experiment ID, grid level, seed, worker count, wall
//     time, sweep-cache hit/miss counts, Go and module version) plus
//     every result table serialized losslessly — typed cells, not just
//     rendered strings (see experiment.Cell). cmd/experiments -report
//     writes one manifest per run.
//   - Renderers derive every human-facing form from one manifest:
//     RenderASCII reproduces cmd/experiments' terminal output
//     byte-for-byte, WriteCSVDir reproduces its -csv files, and
//     RenderMarkdown emits the provenance-headed sections that make up
//     EXPERIMENTS.md. Because all of them read the same typed cells, the
//     rendered forms can never disagree with the record.
//   - Generators produce the repository's result documentation from the
//     code itself: WriteDesign derives DESIGN.md (the experiment index)
//     from the experiment registry, and WriteExperiments derives
//     EXPERIMENTS.md (the recorded results) from a directory of
//     manifests. cmd/report is the committed command that invokes them;
//     CI regenerates DESIGN.md and fails on drift, so the generated
//     documents cannot fall out of sync with the registry.
//
// Determinism: a manifest's rendered forms depend only on its contents,
// and the experiment harness's results are bit-identical per seed, so a
// committed manifest is a reproducible claim, not a snapshot.
package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"lvmajority/internal/durable"
	"lvmajority/internal/experiment"
)

// SchemaVersion identifies the manifest schema. Readers reject manifests
// written by an incompatible future schema instead of misreading them.
const SchemaVersion = 1

// Manifest is the durable record of one experiment run.
type Manifest struct {
	// SchemaVersion is the manifest schema version (SchemaVersion).
	SchemaVersion int `json:"schema_version"`
	// ExperimentID, Title and Artifact identify the registry entry.
	ExperimentID string `json:"experiment_id"`
	Title        string `json:"title"`
	Artifact     string `json:"artifact"`
	// Grid is the effort level the run used: "quick" or "full".
	Grid string `json:"grid"`
	// Seed is the root seed; results are reproducible per seed.
	Seed uint64 `json:"seed"`
	// Workers is the resolved parallel worker count. Results are
	// worker-count independent (the determinism contract), so this is
	// performance provenance only.
	Workers int `json:"workers"`
	// WallTimeNS is the run's wall time in nanoseconds.
	WallTimeNS int64 `json:"wall_time_ns"`
	// SweepCacheHits and SweepCacheMisses count threshold-probe lookups
	// served by, respectively missing, the sweep cache during the run.
	SweepCacheHits   int64 `json:"sweep_cache_hits"`
	SweepCacheMisses int64 `json:"sweep_cache_misses"`
	// GoVersion, Module and ModuleVersion record the toolchain.
	GoVersion     string `json:"go_version"`
	Module        string `json:"module"`
	ModuleVersion string `json:"module_version"`
	// GeneratedAt is the RFC 3339 UTC timestamp of the run, when known.
	GeneratedAt string `json:"generated_at,omitempty"`
	// Tables are the run's result tables with typed cells.
	Tables []*experiment.Table `json:"tables"`
}

// RunInfo carries the per-run provenance New records in a manifest.
type RunInfo struct {
	// Seed is the root seed of the run.
	Seed uint64
	// Workers is the configured worker count; zero resolves to
	// GOMAXPROCS, mirroring experiment.Config.
	Workers int
	// Full selects the heavy (recorded) grids; false means quick.
	Full bool
	// WallTime is the measured wall time of the run.
	WallTime time.Duration
	// CacheHits and CacheMisses are the sweep-cache counter deltas
	// observed across the run (sweep.Cache.Counters).
	CacheHits, CacheMisses int64
	// Now stamps GeneratedAt; the zero time leaves it unset, which
	// golden tests rely on.
	Now time.Time
}

// New assembles the manifest for one completed experiment run.
func New(e experiment.Experiment, info RunInfo, tables []*experiment.Table) *Manifest {
	grid := "quick"
	if info.Full {
		grid = "full"
	}
	workers := info.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	module, version := buildIdentity()
	m := &Manifest{
		SchemaVersion:    SchemaVersion,
		ExperimentID:     e.ID,
		Title:            e.Title,
		Artifact:         e.Artifact,
		Grid:             grid,
		Seed:             info.Seed,
		Workers:          workers,
		WallTimeNS:       info.WallTime.Nanoseconds(),
		SweepCacheHits:   info.CacheHits,
		SweepCacheMisses: info.CacheMisses,
		GoVersion:        runtime.Version(),
		Module:           module,
		ModuleVersion:    version,
		Tables:           tables,
	}
	if !info.Now.IsZero() {
		m.GeneratedAt = info.Now.UTC().Format(time.RFC3339)
	}
	return m
}

// buildIdentity reads the main module's path and version from the embedded
// build info once per process, preferring the VCS revision over the usual
// "(devel)".
var buildIdentity = sync.OnceValues(func() (module, version string) {
	module, version = "lvmajority", "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return module, version
	}
	if bi.Main.Path != "" {
		module = bi.Main.Path
	}
	if bi.Main.Version != "" {
		version = bi.Main.Version
	}
	var revision, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			revision = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if revision != "" {
		if len(revision) > 12 {
			revision = revision[:12]
		}
		if modified == "true" {
			revision += "+dirty"
		}
		version = revision
	}
	return module, version
})

// BuildVersion returns the module path and VCS-stamped version every
// manifest records: the vcs.revision (with a "+dirty" suffix when the tree
// was modified) when the binary carries one, else the module version from
// the build info, else "unknown". The CLIs' -version flags and the server's
// /v1/healthz endpoint report the same identity, so a manifest, a binary,
// and a serving process can always be matched to one another.
func BuildVersion() (module, version string) {
	return buildIdentity()
}

// WallTime returns the recorded wall time.
func (m *Manifest) WallTime() time.Duration {
	return time.Duration(m.WallTimeNS)
}

// Validate checks the structural invariants readers depend on.
func (m *Manifest) Validate() error {
	if m.SchemaVersion != SchemaVersion {
		return fmt.Errorf("report: manifest schema version %d, want %d", m.SchemaVersion, SchemaVersion)
	}
	if m.ExperimentID == "" {
		return fmt.Errorf("report: manifest without experiment id")
	}
	if len(m.Tables) == 0 {
		return fmt.Errorf("report: manifest %s has no tables", m.ExperimentID)
	}
	for _, tbl := range m.Tables {
		if len(tbl.Columns) == 0 {
			return fmt.Errorf("report: manifest %s: table %q has no columns", m.ExperimentID, tbl.Title)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Columns) {
				return fmt.Errorf("report: manifest %s: table %q row has %d cells, want %d",
					m.ExperimentID, tbl.Title, len(row), len(tbl.Columns))
			}
		}
	}
	return nil
}

// SanitizeID maps an experiment ID to the filename-safe form used for
// manifest and CSV files: anything outside [A-Za-z0-9_-] becomes '_'.
func SanitizeID(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, id)
}

// Filename returns the manifest filename for an experiment ID.
func Filename(id string) string {
	return SanitizeID(id) + ".json"
}

// WriteAtomic writes the file produced by generate crash-safely through
// durable.WriteFile (creating the directory if needed); nothing reaches
// path unless generate succeeds. Both manifest writes and the cmd/report
// document generators go through it.
func WriteAtomic(path string, generate func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := generate(&buf); err != nil {
		return err
	}
	if err := durable.WriteFile(path, buf.Bytes()); err != nil {
		return fmt.Errorf("report: writing %s: %w", path, err)
	}
	return nil
}

// WriteFile writes the manifest as indented JSON through durable.WriteFile,
// creating the directory if needed.
func (m *Manifest) WriteFile(path string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("report: encoding manifest %s: %w", m.ExperimentID, err)
	}
	if err := durable.WriteFile(path, append(data, '\n')); err != nil {
		return fmt.Errorf("report: writing %s: %w", path, err)
	}
	return nil
}

// Load reads and validates one manifest.
func Load(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("report: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("report: corrupt manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	return &m, nil
}

// LoadDir loads every *.json manifest under dir, ordered by the experiment
// registry's presentation order; manifests for unknown IDs sort after the
// known ones, alphabetically.
func LoadDir(dir string) ([]*Manifest, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("report: reading manifest directory: %w", err)
	}
	var manifests []*Manifest
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		m, err := Load(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		manifests = append(manifests, m)
	}
	if len(manifests) == 0 {
		return nil, fmt.Errorf("report: no manifests under %s", dir)
	}
	order := make(map[string]int)
	for i, e := range experiment.All() {
		order[e.ID] = i
	}
	unknown := len(order)
	rank := func(m *Manifest) int {
		if r, ok := order[m.ExperimentID]; ok {
			return r
		}
		return unknown
	}
	sort.SliceStable(manifests, func(i, j int) bool {
		ri, rj := rank(manifests[i]), rank(manifests[j])
		if ri != rj {
			return ri < rj
		}
		return manifests[i].ExperimentID < manifests[j].ExperimentID
	})
	return manifests, nil
}
