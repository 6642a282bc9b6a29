// Package intern deduplicates the strings the ingest hot path would
// otherwise allocate once per line. A Squid access log for a busy cell
// names the same few thousand clients and SNI hostnames millions of
// times; converting every occurrence with string(bytes) costs an
// allocation per field per line, while an intern table pays it once per
// distinct value and hands back the shared copy thereafter — so the
// steady-state parse loop allocates nothing.
//
// The table is sharded by FNV-1a hash with an RWMutex per shard: lookup
// hits (the overwhelming majority) take only a read lock, and writers
// for different shards never contend. Go maps look up string(b) keys
// from a []byte without allocating, which is what makes the hit path
// allocation-free.
//
// Each shard keeps two generations of entries so long-running daemons
// with churning client populations do not leak one string per distinct
// value forever: Rotate demotes the current generation, and values not
// seen again before the next Rotate are dropped. A value sighted in the
// old generation is promoted back, so active strings survive any number
// of rotations.
package intern

import (
	"strings"
	"sync"
)

// shardCount spreads lock contention; a power of two so the hash folds
// with a mask.
const shardCount = 16

// Table is a concurrency-safe string interner. The zero value is not
// usable; call NewTable.
type Table struct {
	shards [shardCount]shard
}

// shard holds two generations: cur receives inserts and promotions,
// prev holds values not seen since the last Rotate. A hit in prev moves
// the value to cur, so only values idle across two consecutive Rotate
// calls are released.
type shard struct {
	mu   sync.RWMutex
	cur  map[string]string
	prev map[string]string
}

// NewTable returns an empty interner.
func NewTable() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].cur = map[string]string{}
		t.shards[i].prev = map[string]string{}
	}
	return t
}

// Hash is 32-bit FNV-1a over b without allocating, equal to hash/fnv's
// New32a sum: the one hash behind every shard and worker placement.
func Hash[T string | []byte](b T) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(b); i++ {
		h ^= uint32(b[i])
		h *= prime32
	}
	return h
}

// Bytes returns the canonical string for b, allocating it only the
// first time this value is seen. added reports a first sighting, which
// is how the squid source counts distinct clients without a second
// tracking map. A value resurfacing after Rotate released it counts as
// a fresh sighting again.
func (t *Table) Bytes(b []byte) (s string, added bool) {
	sh := &t.shards[Hash(b)&(shardCount-1)]
	sh.mu.RLock()
	s, ok := sh.cur[string(b)] // no allocation: map lookup special case
	sh.mu.RUnlock()
	if ok {
		return s, false
	}
	sh.mu.Lock()
	s, added = sh.insertLocked(string(b))
	sh.mu.Unlock()
	return s, added
}

// String is Bytes for an already-materialized string: it returns the
// canonical copy and reports first sightings. A first sighting is
// stored as a copy of v, so v — often a substring of a whole input
// line — can be collected.
func (t *Table) String(v string) (s string, added bool) {
	sh := &t.shards[Hash(v)&(shardCount-1)]
	sh.mu.RLock()
	s, ok := sh.cur[v]
	sh.mu.RUnlock()
	if ok {
		return s, false
	}
	sh.mu.Lock()
	s, added = sh.insertLocked(strings.Clone(v))
	sh.mu.Unlock()
	return s, added
}

// insertLocked resolves a cur miss under the write lock: re-check cur
// (another writer may have raced), promote from prev, or insert fresh.
// k must already be a materialized string (string(b) conversions in the
// callers only allocate on this slow path).
func (sh *shard) insertLocked(k string) (s string, added bool) {
	if s, ok := sh.cur[k]; ok {
		return s, false
	}
	if s, ok := sh.prev[k]; ok {
		// Promote: the value is still live, keep it out of the next drop.
		sh.cur[s] = s
		delete(sh.prev, s)
		return s, false
	}
	sh.cur[k] = k
	return k, true
}

// Len reports how many distinct values the table holds across both
// generations.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += len(sh.cur) + len(sh.prev)
		sh.mu.RUnlock()
	}
	return n
}

// Rotate releases every value not seen since the previous Rotate and
// demotes the rest: prev is dropped, cur becomes prev, and a fresh cur
// starts accumulating. Callers tie Rotate to their own idleness signal
// — qoeproxy calls it from the eviction sweep — so table growth is
// bounded by two generations of the active working set instead of the
// all-time distinct count.
func (t *Table) Rotate() {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		sh.prev = sh.cur
		sh.cur = make(map[string]string, len(sh.prev))
		sh.mu.Unlock()
	}
}
