package experiment_test

import (
	"path/filepath"
	"strings"
	"testing"

	"lvmajority/internal/experiment"
	"lvmajority/internal/report"
)

// TestRunAllExperimentsQuick checks the quick-grid record of every
// registered experiment: each must have a committed manifest under
// results/manifests whose tables all have a title and rows and render as
// text and as CSV. It runs no experiment: internal/scenario's
// TestRunnerReproducesCommittedManifests reruns every quick grid and
// checks that it reproduces those tables byte for byte, so the two
// together cover what a second run of the grid here would. It is an
// external test because report imports experiment.
func TestRunAllExperimentsQuick(t *testing.T) {
	dir := filepath.Join("..", "..", "results", "manifests")
	for _, e := range experiment.All() {
		t.Run(e.ID, func(t *testing.T) {
			m, err := report.Load(filepath.Join(dir, report.Filename(e.ID)))
			if err != nil {
				t.Fatalf("%s has no committed manifest: %v", e.ID, err)
			}
			if m.ExperimentID != e.ID || m.Grid != "quick" {
				t.Fatalf("the manifest for %s records experiment %s at grid %q", e.ID, m.ExperimentID, m.Grid)
			}
			if len(m.Tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tbl := range m.Tables {
				if tbl.Title == "" {
					t.Errorf("%s: table without title", e.ID)
				}
				if len(tbl.Rows) == 0 {
					t.Errorf("%s: table %q has no rows", e.ID, tbl.Title)
				}
				var b strings.Builder
				if err := tbl.Render(&b); err != nil {
					t.Errorf("%s: render %q: %v", e.ID, tbl.Title, err)
				}
				b.Reset()
				if err := tbl.WriteCSV(&b); err != nil {
					t.Errorf("%s: CSV %q: %v", e.ID, tbl.Title, err)
				}
			}
		})
	}
}
