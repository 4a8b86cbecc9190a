// Package artifact is the typed, content-addressed store behind the
// portfolio's per-stage memoization. Every pipeline stage result — a
// bitslice match set, a latch-connection graph, a module list, a word set,
// the resolved overlap selection — is wrapped in an Artifact whose Digest
// is derived from the full input closure of the stage: the netlist
// fingerprint, the stage name, a canonical digest of the stage-relevant
// options, and the digests of the stage's upstream artifacts. Two runs
// that would compute the same value therefore derive the same digest, and
// the Store can hand back the finished artifact without re-executing the
// stage (HAL-style pass-level caching: analysis passes are first-class
// units with explicit inputs and outputs, so their results compose and
// memoize independently).
//
// The Store is a bounded in-memory LRU with single-flight population: when
// several analyses race to produce the same artifact, exactly one executes
// the stage body and the rest wait for (and share) its result. A producer
// that finishes without publishing — its run was canceled or timed out, so
// the value is partial — wakes the waiters and the next one takes over,
// which is what makes degraded runs resumable: completed stages publish,
// interrupted stages do not, and a later run with the same inputs reuses
// exactly the published set.
//
// Artifacts are shared by reference: a cached value may be handed to many
// concurrent readers, so stage results must be treated as immutable once
// published. (The one portfolio stage that edits modules in place — the
// register bit-order pass — copies them first for exactly this reason.)
package artifact

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync"
)

// Digest content-addresses one artifact: a lowercase-hex SHA-256 over the
// producing stage's input closure, computed with a Hasher.
type Digest string

// Artifact is one finished stage result.
type Artifact struct {
	// Stage names the pipeline stage that produced the value.
	Stage string
	// Digest is the content address of the stage's input closure; empty
	// when the artifact was produced outside a store (memoization off).
	Digest Digest
	// Value is the stage's typed output. It must be treated as immutable:
	// the same value may be shared by every run that hits this digest.
	Value any
	// Items is the produced-item count recorded in the stage trace
	// (modules for detector stages, words for the word stage, ...), kept
	// with the value so a cache hit reports the same trace numbers as the
	// run that populated it.
	Items int
	// Size is the value's byte size when the caller tracks one (a rendered
	// report, say); Stats sums it over the stored artifacts. Stage
	// artifacts leave it zero.
	Size int64
}

// Hasher accumulates the components of a Digest in a canonical,
// length-prefixed encoding (no separator ambiguity between fields).
type Hasher struct {
	hash    hash.Hash
	scratch [8]byte
}

// NewHasher starts a digest computation under a domain-separation label
// (e.g. "netlistre-stage-v1"); bump the label to invalidate every digest
// when the artifact encoding changes.
func NewHasher(domain string) *Hasher {
	hh := &Hasher{hash: sha256.New()}
	hh.Str(domain)
	return hh
}

func (h *Hasher) writeLen(n int) {
	binary.LittleEndian.PutUint64(h.scratch[:], uint64(n))
	h.hash.Write(h.scratch[:])
}

// Str appends a length-prefixed string.
func (h *Hasher) Str(s string) {
	h.writeLen(len(s))
	h.hash.Write([]byte(s))
}

// Int appends a signed integer.
func (h *Hasher) Int(v int64) { h.Uint64(uint64(v)) }

// Uint64 appends an unsigned integer (fixed width, so no length prefix).
func (h *Hasher) Uint64(v uint64) {
	binary.LittleEndian.PutUint64(h.scratch[:], v)
	h.hash.Write(h.scratch[:])
}

// Bool appends a boolean.
func (h *Hasher) Bool(b bool) {
	if b {
		h.Uint64(1)
	} else {
		h.Uint64(0)
	}
}

// Digest appends another artifact's digest (an upstream dependency).
func (h *Hasher) Digest(d Digest) { h.Str(string(d)) }

// Sum finalizes the digest.
func (h *Hasher) Sum() Digest {
	return Digest(hex.EncodeToString(h.hash.Sum(nil)))
}

// Stats is a point-in-time snapshot of the store counters.
type Stats struct {
	// Hits counts Do calls served from the store or from another caller's
	// in-flight computation.
	Hits int64
	// Misses counts Do calls that executed their compute function.
	Misses int64
	// Evictions counts artifacts dropped by the LRU bound.
	Evictions int64
	// Entries is the current artifact count.
	Entries int
	// Bytes sums Artifact.Size over the stored artifacts.
	Bytes int64
}

// DefaultMaxEntries bounds a store created with a non-positive limit.
const DefaultMaxEntries = 1024

// Store is a bounded, single-flight, content-addressed artifact cache,
// safe for concurrent use by any number of analyses.
type Store struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	entries map[Digest]*list.Element
	flights map[Digest]*flight

	hits, misses, evictions int64
	bytes                   int64
}

type storeEntry struct {
	key Digest
	art *Artifact
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done chan struct{}
	art  *Artifact
	ok   bool // whether the producer published
}

// NewStore returns a store bounded to max artifacts (<= 0 selects
// DefaultMaxEntries).
func NewStore(max int) *Store {
	if max <= 0 {
		max = DefaultMaxEntries
	}
	return &Store{
		max:     max,
		ll:      list.New(),
		entries: make(map[Digest]*list.Element),
		flights: make(map[Digest]*flight),
	}
}

// Get returns the artifact stored under key, if any, marking it most
// recently used. It does not join or start a flight.
func (s *Store) Get(key Digest) (*Artifact, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*storeEntry).art, true
}

// put stores art under key (caller holds mu).
func (s *Store) put(key Digest, art *Artifact) {
	if _, exists := s.entries[key]; exists {
		return // same key, same content: nothing to update
	}
	s.entries[key] = s.ll.PushFront(&storeEntry{key: key, art: art})
	s.bytes += art.Size
	for s.ll.Len() > s.max {
		oldest := s.ll.Back()
		e := oldest.Value.(*storeEntry)
		s.ll.Remove(oldest)
		delete(s.entries, e.key)
		s.bytes -= e.art.Size
		s.evictions++
	}
}

// Do returns the artifact for key, computing it at most once across
// concurrent callers. On a hit (stored, or produced by a concurrent
// caller) it returns (artifact, true, nil). Otherwise compute runs in the
// calling goroutine; its boolean result says whether the artifact is
// complete and may be published — a producer interrupted by a timeout or
// cancellation returns false, its partial artifact is handed back to the
// caller only, and one of the waiters takes over the computation.
//
// While waiting on another caller's flight, Do honors ctx: if it expires
// first, Do returns ctx.Err() without a value. A panic inside compute
// releases the flight (waiters retry) and propagates to the caller.
func (s *Store) Do(ctx context.Context, key Digest, compute func() (*Artifact, bool)) (*Artifact, bool, error) {
	for {
		s.mu.Lock()
		if el, ok := s.entries[key]; ok {
			s.hits++
			s.ll.MoveToFront(el)
			art := el.Value.(*storeEntry).art
			s.mu.Unlock()
			return art, true, nil
		}
		if f, ok := s.flights[key]; ok {
			s.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if f.ok {
				s.mu.Lock()
				s.hits++
				s.mu.Unlock()
				return f.art, true, nil
			}
			continue // producer declined to publish; retry (maybe lead)
		}
		f := &flight{done: make(chan struct{})}
		s.flights[key] = f
		s.misses++
		s.mu.Unlock()

		var (
			art       *Artifact
			published bool
		)
		func() {
			// The deferred cleanup also runs when compute panics: the
			// flight is released unpublished so waiters retry, then the
			// panic propagates to the caller (the scheduler converts it
			// to a failed stage).
			defer func() {
				s.mu.Lock()
				delete(s.flights, key)
				if published {
					s.put(key, art)
				}
				s.mu.Unlock()
				f.art, f.ok = art, published
				close(f.done)
			}()
			art, published = compute()
		}()
		return art, false, nil
	}
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.evictions,
		Entries:   s.ll.Len(),
		Bytes:     s.bytes,
	}
}
