package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"lvmajority/internal/durable"
	"lvmajority/internal/faultpoint"
	"lvmajority/internal/ioretry"
	"lvmajority/internal/stats"
)

// Key identifies one probe result in the cache: the protocol identity, the
// population and gap, the root seed of the search (the per-gap stream is
// derived from it deterministically), the trial budget, the target the
// early-stopping estimator compares against, and whether early stopping was
// on. Changing any of them invalidates the entry by construction — there is
// no TTL and no explicit invalidation.
//
// The protocol identity is its CacheKey when implemented, else its Name
// (see CacheKeyer). A protocol whose dynamics change while both stay the
// same would replay stale probes — implement CacheKeyer over all
// behaviour-changing parameters (as consensus.LVProtocol does), or point
// such runs at a fresh cache file.
type Key struct {
	Protocol  string  `json:"protocol"`
	N         int     `json:"n"`
	Delta     int     `json:"delta"`
	Seed      uint64  `json:"seed"`
	Trials    int     `json:"trials"`
	Target    float64 `json:"target"`
	EarlyStop bool    `json:"early_stop"`
}

// less orders keys for the on-disk encoding: protocol, then the numeric
// knobs. Any total order would do; this one keeps related probes adjacent.
func (k Key) less(o Key) bool {
	switch {
	case k.Protocol != o.Protocol:
		return k.Protocol < o.Protocol
	case k.N != o.N:
		return k.N < o.N
	case k.Delta != o.Delta:
		return k.Delta < o.Delta
	case k.Seed != o.Seed:
		return k.Seed < o.Seed
	case k.Trials != o.Trials:
		return k.Trials < o.Trials
	case k.Target != o.Target:
		return k.Target < o.Target
	default:
		return !k.EarlyStop && o.EarlyStop
	}
}

// Entry pairs a key with its settled estimate — the unit of the cache's
// persisted and wire encodings.
type Entry struct {
	Key      Key                     `json:"key"`
	Estimate stats.BernoulliEstimate `json:"estimate"`
}

// cacheFile is the JSON document stored on disk and exchanged with a remote
// cache server. Checksum is the SHA-256 of the encoded entries, so a torn
// or bit-flipped file (or HTTP body) is detected as corrupt even when it
// still parses as JSON.
type cacheFile struct {
	Version  int     `json:"version"`
	Checksum string  `json:"checksum,omitempty"`
	Entries  []Entry `json:"entries"`
}

// cacheVersion invalidates every persisted entry when the probe semantics
// change incompatibly (e.g. a new per-gap seed derivation). Version 2 added
// the entries checksum.
const cacheVersion = 2

// entriesChecksum is the integrity hash persisted alongside the entries.
func entriesChecksum(entries []Entry) (string, error) {
	data, err := json.Marshal(entries)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// EncodeEntries renders entries in the cache's canonical encoding — sorted
// by key, version-stamped, checksummed — and returns the document plus the
// checksum. The checksum is content-addressed: equal entry sets encode to
// equal documents with equal checksums, which is what the remote backend's
// ETag validation relies on. The input slice is not modified.
func EncodeEntries(entries []Entry) (data []byte, checksum string, err error) {
	sorted := append([]Entry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key.less(sorted[j].Key) })
	sum, err := entriesChecksum(sorted)
	if err != nil {
		return nil, "", fmt.Errorf("sweep: encoding cache: %w", err)
	}
	data, err = json.Marshal(cacheFile{Version: cacheVersion, Checksum: sum, Entries: sorted})
	if err != nil {
		return nil, "", fmt.Errorf("sweep: encoding cache: %w", err)
	}
	return data, sum, nil
}

// DecodeEntries parses a canonical cache document, verifying its checksum.
// A document whose checksum does not cover its entries — a torn write, a
// truncated response — is an error, never silently partial data. A document
// from an incompatible cache version decodes to no entries: replaying
// probes across a semantics change would be wrong, starting cold is merely
// slow.
func DecodeEntries(data []byte) (entries []Entry, checksum string, err error) {
	var file cacheFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, "", fmt.Errorf("sweep: decoding cache: %w", err)
	}
	if file.Version != cacheVersion {
		return nil, "", nil
	}
	sum, err := entriesChecksum(file.Entries)
	if err != nil {
		return nil, "", fmt.Errorf("sweep: decoding cache: %w", err)
	}
	if file.Checksum != "" && sum != file.Checksum {
		return nil, "", fmt.Errorf("sweep: cache document failed checksum validation")
	}
	return file.Entries, sum, nil
}

// cacheRetry is the retry policy for cache file I/O. The seed is arbitrary
// but fixed: retry timing, like everything else, is reproducible.
var cacheRetry = ioretry.Policy{Seed: 0xcac4e}

// Cache is a concurrency-safe store of settled probe estimates, optionally
// persisted to a JSON file. A Cache with an empty path is memory-only:
// Save and Checkpoint are then no-ops, which is what tests and one-shot
// callers want.
//
// Persistence is crash-safe and non-fatal by design: files are written to a
// temp file, fsynced, and renamed into place, so a kill at any moment
// leaves either the old or the new file, never a torn one; a corrupt file
// is quarantined (renamed aside) at open instead of failing the run; and
// when writes keep failing after retries the cache degrades to memory-only
// for the rest of its life (Degraded reports why) rather than failing a
// computed sweep — persistence is an optimization, never a correctness
// dependency.
type Cache struct {
	mu      sync.Mutex
	path    string
	entries map[Key]stats.BernoulliEstimate
	dirty   bool
	gen     int64
	hits    int64
	misses  int64

	// saveMu serializes persistence so retrying writers never interleave;
	// it is always acquired before mu, and mu is never held across I/O.
	// The remote client is driven only under saveMu as well.
	saveMu      sync.Mutex
	remote      *remoteClient
	degradedErr error
	quarantined string
}

// NewCache returns an empty memory-only cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[Key]stats.BernoulliEstimate)}
}

// OpenCache loads the cache persisted at path, or returns an empty cache
// bound to that path when the file does not exist yet. An empty path
// returns a memory-only cache.
//
// A file that cannot be read (after retries), parsed, or verified against
// its checksum is quarantined: renamed to path+".corrupt" (best-effort) and
// replaced by an empty cache, so a damaged file costs recomputation, never
// the run. Quarantined reports the quarantine path when this happened.
func OpenCache(path string) (*Cache, error) {
	c := NewCache()
	c.path = path
	if path == "" {
		return c, nil
	}
	var data []byte
	err := ioretry.Do(cacheRetry, func() error {
		if err := faultpoint.Hit(faultpoint.CacheRead); err != nil {
			return err
		}
		var rerr error
		data, rerr = os.ReadFile(path)
		if os.IsNotExist(rerr) {
			data = nil
			return nil
		}
		return rerr
	})
	if err != nil {
		c.quarantine()
		return c, nil
	}
	if data == nil {
		return c, nil
	}
	entries, _, err := DecodeEntries(data)
	if err != nil {
		c.quarantine()
		return c, nil
	}
	for _, e := range entries {
		c.entries[e.Key] = e.Estimate
	}
	return c, nil
}

// quarantine moves the cache file aside (see durable.Quarantine).
// Best-effort: if even the rename fails the next Save simply overwrites the
// file.
func (c *Cache) quarantine() {
	if q, err := durable.Quarantine(c.path); err == nil {
		c.quarantined = q
	}
}

// Quarantined returns the path the damaged cache file was moved to at open,
// or "" when the file loaded cleanly.
func (c *Cache) Quarantined() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quarantined
}

// Degraded returns the persistence error that switched the cache to
// memory-only operation, or nil while persistence is healthy.
func (c *Cache) Degraded() error {
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	return c.degradedErr
}

// Get returns the cached estimate for k, if any, and counts the lookup as
// a hit or miss (see Counters). A remote-backed cache revalidates against
// the server on a local miss — usually one conditional GET answered 304 —
// so probes another fleet member settled since the last exchange are found
// without a fresh Monte-Carlo run.
func (c *Cache) Get(k Key) (stats.BernoulliEstimate, bool) {
	c.mu.Lock()
	est, ok := c.entries[k]
	if !ok && c.remote != nil {
		c.mu.Unlock()
		c.revalidate()
		c.mu.Lock()
		est, ok = c.entries[k]
	}
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	return est, ok
}

// Counters returns the cumulative hit and miss counts of Get over the
// cache's lifetime. Callers wanting per-run accounting (e.g. run manifests)
// snapshot the counters around the run and record the difference.
func (c *Cache) Counters() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Put stores a settled estimate under k.
func (c *Cache) Put(k Key, est stats.BernoulliEstimate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[k]; ok && old == est {
		return
	}
	c.entries[k] = est
	c.dirty = true
	c.gen++
}

// Len returns the number of cached probes.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Entries returns a snapshot of the cache's contents in the canonical key
// order — the form EncodeEntries expects and a cache server serves.
func (c *Cache) Entries() []Entry {
	c.mu.Lock()
	entries := make([]Entry, 0, len(c.entries))
	for k, est := range c.entries {
		entries = append(entries, Entry{Key: k, Estimate: est})
	}
	c.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key.less(entries[j].Key) })
	return entries
}

// MergeEntries adopts every entry whose key the cache does not hold yet and
// returns how many were new. Keys already present keep their local
// estimate: an entry is deterministic in its key, so a conflicting value
// means the peers run incompatible semantics, and first-write-wins keeps
// this cache self-consistent. Adopted entries count as local changes (they
// are persisted by the next Save), which is what a cache server merging
// pushed fleet entries needs.
func (c *Cache) MergeEntries(entries []Entry) int {
	return c.adopt(entries, true)
}

// adopt merges entries, optionally marking the cache dirty. The remote
// revalidation path adopts without dirtying: entries fetched from the
// server are already on the server, so pushing them back would be churn.
func (c *Cache) adopt(entries []Entry, markDirty bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	added := 0
	for _, e := range entries {
		if _, ok := c.entries[e.Key]; ok {
			continue
		}
		c.entries[e.Key] = e.Estimate
		added++
	}
	if added > 0 && markDirty {
		c.dirty = true
		c.gen++
	}
	return added
}

// Save atomically persists the cache to its path. It is a no-op for
// memory-only caches, when nothing changed since the last Save, and once
// the cache has degraded (the error that degraded it was already returned).
//
// Failed attempts are retried with backoff; if every attempt fails the
// cache degrades to memory-only and the error is returned once. Callers
// treat it as a lost optimization, not a failed run.
func (c *Cache) Save() error {
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	return c.saveLocked()
}

// Checkpoint persists the cache at a probe boundary. It is Save plus the
// probe-flush fault point, which chaos tests arm to simulate a process
// killed mid-sweep with only the checkpointed probes on disk.
func (c *Cache) Checkpoint() error {
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	if c.path == "" && c.remote == nil {
		return nil
	}
	if err := faultpoint.Hit(faultpoint.ProbeFlush); err != nil {
		return err
	}
	return c.saveLocked()
}

// saveLocked implements Save; the caller holds saveMu (never mu — the
// entries snapshot takes mu briefly, and no I/O happens under it).
func (c *Cache) saveLocked() error {
	if (c.path == "" && c.remote == nil) || c.degradedErr != nil {
		return nil
	}
	c.mu.Lock()
	if !c.dirty {
		c.mu.Unlock()
		return nil
	}
	gen := c.gen
	entries := make([]Entry, 0, len(c.entries))
	for k, est := range c.entries {
		entries = append(entries, Entry{Key: k, Estimate: est})
	}
	c.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key.less(entries[j].Key) })

	// Map order would leak into the persisted JSON, making the cache file
	// byte-different on every save; EncodeEntries sorts (again — the sort
	// above keeps the snapshot deterministic for any reader), keeping the
	// document content-stable.
	data, _, err := EncodeEntries(entries)
	if err != nil {
		return err
	}
	if c.remote != nil {
		err = ioretry.Do(cacheRetry, func() error {
			if err := faultpoint.Hit(faultpoint.CacheWrite); err != nil {
				return err
			}
			return c.remote.push(data)
		})
		if err != nil {
			c.degradedErr = fmt.Errorf("sweep: pushing cache to %s: %w", c.remote.url, err)
			return c.degradedErr
		}
	} else {
		err = ioretry.Do(cacheRetry, func() error {
			if err := faultpoint.Hit(faultpoint.CacheWrite); err != nil {
				return err
			}
			return durable.WriteFile(c.path, data)
		})
		if err != nil {
			c.degradedErr = fmt.Errorf("sweep: persisting cache %s: %w", c.path, err)
			return c.degradedErr
		}
	}
	// Clear dirtiness only if no Put landed after the snapshot was taken —
	// otherwise those entries would silently miss the next Save.
	c.mu.Lock()
	if c.gen == gen {
		c.dirty = false
	}
	c.mu.Unlock()
	return nil
}
