package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"voltsmooth/internal/durable"
	"voltsmooth/internal/telemetry"
)

// The cross-tenant result cache (DESIGN §12) lives under the store:
//
//	<dir>/cache/<fingerprint>/result.json
//
// keyed by JobSpec.ConfigFingerprint — everything that determines a
// campaign's rendered output and nothing that doesn't. The engine is
// deterministic (bit-identical at any worker width), so identical
// normalized specs from different tenants may share one execution: the
// first job to finish publishes its renders here, and every later
// identical spec is served instantly with byte-identical renders.
//
// Entries are written by the same atomic replace (internal/durable) as
// result.json, and — in fleet mode — inside the publisher's lease Guard,
// so a fenced stale worker can never poison the cache. Reads validate
// the entry (parseable, fingerprint echoes the key, renders non-empty);
// any defect is a miss and the job simply executes, rewriting the entry.

// CacheEntry is one durable cache record.
type CacheEntry struct {
	// Fingerprint echoes the directory key; a mismatch (a torn or
	// misplaced file) invalidates the entry.
	Fingerprint string `json:"fingerprint"`
	// SourceJob is the job whose execution produced these renders —
	// surfaced as CacheSource in statuses served from this entry.
	SourceJob string `json:"source_job"`
	// Renders / Attempts / Units mirror the source job's Result.
	Renders       map[string]string `json:"renders"`
	Attempts      map[string]int    `json:"attempts,omitempty"`
	Units         uint64            `json:"units"`
	CreatedUnixNS int64             `json:"created_unix_ns"`
}

func (s *Store) cacheDir(fp string) string { return filepath.Join(s.dir, "cache", fp) }

// CachePath returns the durable cache entry path for a fingerprint.
func (s *Store) CachePath(fp string) string {
	return filepath.Join(s.cacheDir(fp), "result.json")
}

// WriteCached publishes a cache entry atomically: a reader sees the old
// entry, the new entry, or none — never a torn one.
func (s *Store) WriteCached(e *CacheEntry) error {
	if e.Fingerprint == "" {
		return errors.New("api: cache entry without a fingerprint")
	}
	if err := (durable.OS{}).MkdirAll(s.cacheDir(e.Fingerprint)); err != nil {
		return fmt.Errorf("api: create cache dir: %w", err)
	}
	return persistJSON(s.CachePath(e.Fingerprint), e)
}

// LoadCached reads and validates the cache entry for a fingerprint.
// os.ErrNotExist when none exists; any other defect — unparseable JSON,
// a fingerprint that doesn't echo the key, empty renders — is an error
// too, and callers treat every error as a miss. A partial result must
// never be served.
func (s *Store) LoadCached(fp string) (*CacheEntry, error) {
	data, err := os.ReadFile(s.CachePath(fp))
	if err != nil {
		return nil, err
	}
	var e CacheEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("api: corrupt cache entry %s: %w", fp, err)
	}
	if e.Fingerprint != fp {
		return nil, fmt.Errorf("api: cache entry %s claims fingerprint %q", fp, e.Fingerprint)
	}
	if len(e.Renders) == 0 {
		return nil, fmt.Errorf("api: cache entry %s has no renders", fp)
	}
	return &e, nil
}

// EvictCachedOver bounds the cache at max fingerprints, removing the
// oldest (by CreatedUnixNS) beyond it; unreadable entries evict first.
// Returns how many entries were removed. max <= 0 means unbounded.
func (s *Store) EvictCachedOver(max int) (int, error) {
	if max <= 0 {
		return 0, nil
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, "cache"))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("api: scan cache: %w", err)
	}
	type aged struct {
		fp      string
		created int64 // 0 for unreadable entries — oldest of all
	}
	var all []aged
	for _, de := range entries {
		if !de.IsDir() {
			continue
		}
		a := aged{fp: de.Name()}
		if e, err := s.LoadCached(de.Name()); err == nil {
			a.created = e.CreatedUnixNS
		}
		all = append(all, a)
	}
	if len(all) <= max {
		return 0, nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].created < all[j].created })
	evicted := 0
	for _, a := range all[:len(all)-max] {
		if err := os.RemoveAll(s.cacheDir(a.fp)); err != nil {
			return evicted, fmt.Errorf("api: evict cache entry %s: %w", a.fp, err)
		}
		evicted++
	}
	return evicted, nil
}

// cacheEnabled reports whether the dedup layer is on for this server.
func (s *Server) cacheEnabled() bool { return !s.cfg.DisableCache }

// cacheLookup returns the validated cache entry for fp, or nil on any
// kind of miss. Defective entries are logged and ignored — the job
// executes and its publish rewrites the entry.
func (s *Server) cacheLookup(fp string) *CacheEntry {
	if !s.cacheEnabled() || fp == "" {
		return nil
	}
	e, err := s.store.LoadCached(fp)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.logf("cache: %v (ignoring entry; job will execute)", err)
			hookTrace(telemetry.Event{Kind: "api.cache.invalid", ID: fp, Detail: firstLine(err)})
		}
		return nil
	}
	return e
}

// finishFromCache completes jb from a cache entry without executing it.
func (s *Server) finishFromCache(jb *job, e *CacheEntry) {
	s.finishShared(jb, &Result{ID: e.SourceJob, Renders: e.Renders, Attempts: e.Attempts, Units: e.Units},
		"api.job.cache_hit", "served from cached execution of ",
		func(h *Hooks) *telemetry.Counter { return h.CacheHits })
}

// serveFollower completes a follower from its leader's just-finished
// result — the in-flight analogue of finishFromCache.
func (s *Server) serveFollower(f *job, src *Result) {
	s.finishShared(f, src, "api.job.cache_followed", "served from in-flight execution of ",
		func(h *Hooks) *telemetry.Counter { return h.CacheFollowed })
}

// finishShared completes jb from another job's execution (src): src's
// render maps become jb's terminal Result, marked Cached with the source
// job's ID, so both tenants' renders are byte-identical. The write goes
// through commitResult, so in fleet mode it is still fenced by the job's
// lease.
func (s *Server) finishShared(jb *job, src *Result, kind, detail string, counter func(*Hooks) *telemetry.Counter) {
	jb.mu.Lock()
	if jb.state.terminal() {
		jb.mu.Unlock()
		return
	}
	res := &Result{
		ID:             jb.id,
		State:          StateDone,
		Renders:        src.Renders,
		Attempts:       src.Attempts,
		Units:          src.Units,
		StartedUnixNS:  unixNS(jb.started),
		FinishedUnixNS: s.now().UnixNano(),
		Cached:         true,
		CacheSource:    src.ID,
	}
	jb.mu.Unlock()

	hookInc(counter)
	jb.trace.Emit(telemetry.Event{Kind: kind, ID: jb.id, Detail: detail + src.ID})
	s.commitResult(jb, res)
}

// dedupLeader returns the job that should execute fingerprint fp: the
// lowest-ID job with that fingerprint that is neither terminal nor
// canceling. Job IDs are minted by one store-level counter, so every
// fleet worker computes the same leader from its mirror of the store —
// the rule needs no coordination beyond the scanner that already exists.
// nil when no live job carries fp.
func (s *Server) dedupLeader(fp string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dedupLeaderLocked(fp)
}

// dedupLeaderLocked is dedupLeader with Server.mu already held. It walks
// only fp's entries in the live index, dropping those that went terminal.
func (s *Server) dedupLeaderLocked(fp string) *job {
	if fp == "" {
		return nil
	}
	var leader *job
	all := s.live[fp]
	kept := all[:0]
	for _, jb := range all { // ID order == submission order
		jb.mu.Lock()
		terminal := jb.state.terminal()
		canceling := jb.cause == causeCancel
		jb.mu.Unlock()
		if terminal {
			continue
		}
		kept = append(kept, jb)
		if leader == nil && !canceling {
			leader = jb
		}
	}
	clear(all[len(kept):])
	if len(kept) == 0 {
		delete(s.live, fp)
	} else {
		s.live[fp] = kept
	}
	return leader
}
