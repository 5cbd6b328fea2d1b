// Package durable holds the crash-safe file primitives behind every
// persisted side channel — the sweep probe cache, run manifests and the
// generated documents, and the server's run and worker journals: an atomic
// write, quarantine of unreadable files, and a journal of small JSON
// entries. None of them ever changes a computed result; they decide only
// what survives a crash.
package durable

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"lvmajority/internal/faultpoint"
	"lvmajority/internal/ioretry"
)

// WriteFile installs data at path through a temp file in the same
// directory that is fsynced and renamed into place, then fsyncs the
// directory, so a crash at any instant leaves either the previous file or
// the complete new one — never a truncated hybrid — and the rename itself
// survives a power cut. It creates the directory if needed; the file gets
// mode 0644.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Best-effort: some platforms and filesystems cannot fsync a
	// directory, and the file itself is already complete on disk.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Quarantine moves an unreadable file aside to path+".corrupt", so the
// damaged bytes survive for diagnosis without being replayed, and returns
// the new path.
func Quarantine(path string) (string, error) {
	q := path + ".corrupt"
	return q, os.Rename(path, q)
}

// journalRetry is the backoff policy for journal writes. Deterministic
// seed, like every other stream in the repository.
var journalRetry = ioretry.Policy{Seed: 0x10a7a1}

// Journal persists one small JSON entry per live record as
// <prefix><key>.json under one directory, so a restarted process can
// replay what its predecessor left behind. Journal I/O is best-effort: a
// write failure is retried, then logged, and the caller proceeds — the
// journal degrades, the work it records does not. A nil *Journal is the
// disabled state: Put and Remove are no-ops, so call sites never branch on
// whether journaling is configured.
type Journal struct {
	dir, prefix string
	logger      *log.Logger
}

// OpenJournal creates dir if needed and returns the journal of the entries
// named prefix*.json in it. Several journals may share a directory under
// distinct prefixes.
func OpenJournal(dir, prefix string, logger *log.Logger) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{dir: dir, prefix: prefix, logger: logger}, nil
}

func (j *Journal) path(key string) string {
	return filepath.Join(j.dir, j.prefix+key+".json")
}

// Put persists (or refreshes) the entry for key as indented JSON. Every
// attempt passes the journal-write fault point.
func (j *Journal) Put(key string, v any) {
	if j == nil {
		return
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		j.logger.Printf("journal: marshal %s%s: %v", j.prefix, key, err)
		return
	}
	err = ioretry.Do(journalRetry, func() error {
		if err := faultpoint.Hit(faultpoint.JournalWrite); err != nil {
			return err
		}
		return WriteFile(j.path(key), data)
	})
	if err != nil {
		j.logger.Printf("journal: record %s%s: %v (work unaffected)", j.prefix, key, err)
	}
}

// Remove deletes the entry for key, if any.
func (j *Journal) Remove(key string) {
	if j == nil {
		return
	}
	if err := os.Remove(j.path(key)); err != nil && !os.IsNotExist(err) {
		j.logger.Printf("journal: remove %s%s: %v", j.prefix, key, err)
	}
}

// Replay calls decode with the key and contents of every entry, in file
// name order. An entry that cannot be read, or that decode rejects, is
// quarantined as *.corrupt and logged, never fatal: a half-written file
// from a crash mid-write must not keep a process from starting.
func (j *Journal) Replay(decode func(key string, data []byte) error) error {
	files, err := os.ReadDir(j.dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	for _, f := range files {
		name := f.Name()
		key, ok := strings.CutPrefix(name, j.prefix)
		if !ok || f.IsDir() || !strings.HasSuffix(key, ".json") {
			continue
		}
		key = strings.TrimSuffix(key, ".json")
		data, err := os.ReadFile(filepath.Join(j.dir, name))
		if err == nil {
			err = decode(key, data)
		}
		if err != nil {
			// Best-effort: an entry that cannot be moved aside is
			// rejected again at the next replay.
			Quarantine(filepath.Join(j.dir, name))
			j.logger.Printf("journal: quarantined unreadable entry %s: %v", name, err)
		}
	}
	return nil
}
