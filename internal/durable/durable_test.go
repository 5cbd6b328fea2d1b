package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lvmajority/internal/faultpoint"
)

func TestWriteFileReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "f.json")
	for _, body := range []string{"first", "second"} {
		if err := WriteFile(path, []byte(body)); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil || string(data) != body {
			t.Fatalf("read %q, %v; want %q", data, err, body)
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Errorf("mode %v, want 0644", info.Mode().Perm())
	}
	files, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Errorf("directory holds %d files, want only the target (no temp files left)", len(files))
	}
}

func TestQuarantine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := Quarantine(path)
	if err != nil || q != path+".corrupt" {
		t.Fatalf("Quarantine = %q, %v", q, err)
	}
	if data, err := os.ReadFile(q); err != nil || string(data) != "{torn" {
		t.Errorf("quarantined bytes %q, %v", data, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("original still present: %v", err)
	}
}

type entry struct {
	ID int `json:"id"`
}

// TestJournalRoundTrip: Put, Remove and Replay under one prefix, a second
// prefix sharing the directory untouched, torn and rejected entries
// quarantined, and a nil journal inert.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var logs bytes.Buffer
	runs, err := OpenJournal(dir, "run-", log.New(&logs, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	workers, err := OpenJournal(dir, "worker-", log.New(&logs, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 3; id++ {
		runs.Put(fmt.Sprint(id), entry{ID: id})
	}
	runs.Remove("2")
	runs.Remove("9") // absent: not an error
	workers.Put("w1", entry{ID: 7})
	if err := os.WriteFile(filepath.Join(dir, "run-4.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	var got []string
	err = runs.Replay(func(key string, data []byte) error {
		var e entry
		if err := json.Unmarshal(data, &e); err != nil {
			return err
		}
		if e.ID == 3 {
			return fmt.Errorf("rejected")
		}
		got = append(got, fmt.Sprintf("%s=%d", key, e.ID))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "1=1" {
		t.Errorf("replayed %v, want [1=1]", got)
	}
	for _, name := range []string{"run-3.json.corrupt", "run-4.json.corrupt", "worker-w1.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if !strings.Contains(logs.String(), "quarantined unreadable entry run-4.json") {
		t.Errorf("quarantine not logged: %q", logs.String())
	}

	var off *Journal
	off.Put("1", entry{ID: 1})
	off.Remove("1")
}

// TestChaosJournalPutFault: persistent journal-write failures are retried,
// logged and dropped — Put never panics or blocks its caller, and no entry
// or temp file is left behind.
func TestChaosJournalPutFault(t *testing.T) {
	dir := t.TempDir()
	var logs bytes.Buffer
	j, err := OpenJournal(dir, "worker-", log.New(&logs, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	plan := faultpoint.NewPlan(faultpoint.Rule{
		Site: faultpoint.JournalWrite, Times: 1 << 20, Mode: faultpoint.ModeError, Msg: "disk gone",
	})
	faultpoint.Arm(plan)
	defer faultpoint.Disarm()
	j.Put("w1", entry{ID: 1})
	if plan.Triggered() < 2 {
		t.Errorf("journal write attempted %d times, want retries", plan.Triggered())
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("failed journal write left %d files", len(files))
	}
	if !strings.Contains(logs.String(), "disk gone") {
		t.Errorf("failure not logged: %q", logs.String())
	}
}
