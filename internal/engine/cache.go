// Cross-step accumulator cache: exploration walks revisit heavily
// overlapping rating groups (filter → generalize → filter returns to a
// selection whose maps were already computed, and the Recommendation
// Builder re-evaluates hundreds of candidate operations whose targets
// recur step after step). The accumulated histograms depend only on
// (record set, candidate set), NOT on the session's seen-set, and so do
// three of the four criteria of every candidate. An entry is therefore
// a sealed accumulator (keys and counter rows, its scan state dropped)
// plus its ratingmap.BaseSet (conciseness, agreement, self peculiarity
// and the distinct pooled distributions), admitted after the finalize
// pass that built the BaseSet. A repeated step skips the scan and the
// base criteria; finalize still scores global peculiarity fresh against
// the current history, so cached and uncached steps return identical
// Results. This is the repeated-subquery memoization of the Subjective
// Databases system (Li et al.) applied to SubDEx's aggregation hot path,
// budgeted like the query layer's group cache (cf. Data Canopy [57]).

package engine

import (
	"container/list"
	"sync"

	"subdex/internal/dataset"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// TopMapsCache memoizes fully-accumulated, unpruned accumulators and
// their BaseSets across TopMaps calls. Entries are keyed by (group
// signature, candidate-key set, utility config) and budgeted by total
// cached record count — the scan cost a hit saves — with LRU eviction.
//
// Correctness invariant: only accumulators from COMPLETE, UNPRUNED scans
// are admitted (every candidate's histogram covers every record of the
// group). A hit bypasses the phase/pruning machinery and finalizes the
// exact ranking directly; for unpruned configurations this is
// bit-identical to the uncached run, for pruned configurations it is the
// exact (strictly no-worse) answer the pruned run approximates w.h.p.
// Entries are sealed and read-only after publication (the BaseSet's
// utility config is part of the key, so its peculiarity measure is the
// caller's); concurrent finalize passes over one entry are safe.
type TopMapsCache struct {
	mu      sync.Mutex
	budget  int
	used    int
	order   *list.List // front = most recently used
	entries map[cacheKey]*list.Element

	hits, misses, evictions int64
}

// topMapsCacheEntry is one completed scan: its sealed accumulator and
// the BaseSet finalize filled from it.
type topMapsCacheEntry struct {
	key  cacheKey
	acc  *ratingmap.Accumulator
	base *ratingmap.BaseSet
	cost int // record count of the cached scan
}

// NewTopMapsCache returns a cache budgeted by total cached record count
// (≤ 0 yields a cache that stores nothing but still counts misses).
func NewTopMapsCache(budgetRecords int) *TopMapsCache {
	return &TopMapsCache{
		budget:  budgetRecords,
		order:   list.New(),
		entries: make(map[cacheKey]*list.Element),
	}
}

// get returns the cached accumulator and BaseSet for key, if any, marking
// the entry most recently used.
func (c *TopMapsCache) get(key cacheKey) (*ratingmap.Accumulator, *ratingmap.BaseSet, bool) {
	if c == nil {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	e := el.Value.(*topMapsCacheEntry)
	return e.acc, e.base, true
}

// put admits a sealed, completed accumulator with its filled BaseSet,
// evicting LRU entries until the record budget holds. It returns how many
// entries were evicted. Entries larger than the whole budget are never
// admitted.
func (c *TopMapsCache) put(key cacheKey, acc *ratingmap.Accumulator, base *ratingmap.BaseSet, cost int) int {
	if c == nil || c.budget <= 0 || cost > c.budget {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return 0
	}
	evicted := 0
	for c.used+cost > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*topMapsCacheEntry)
		c.used -= ev.cost
		delete(c.entries, ev.key)
		c.order.Remove(back)
		evicted++
	}
	el := c.order.PushFront(&topMapsCacheEntry{key: key, acc: acc, base: base, cost: cost})
	c.entries[key] = el
	c.used += cost
	return evicted
}

// Invalidate drops every entry (and resets nothing else: hit/miss
// counters keep accumulating). Call it when the underlying database is
// swapped or mutated out from under the engine.
func (c *TopMapsCache) Invalidate() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.entries = make(map[cacheKey]*list.Element)
	c.used = 0
}

// CacheStats is a point-in-time snapshot of the cache, surfaced by the
// server's /debug/cache endpoint and by cmd/sdebench.
type CacheStats struct {
	Entries       int   `json:"entries"`
	UsedRecords   int   `json:"used_records"`
	BudgetRecords int   `json:"budget_records"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the cache counters. Nil-safe (zero stats).
func (c *TopMapsCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:       len(c.entries),
		UsedRecords:   c.used,
		BudgetRecords: c.budget,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
	}
}

// addEvictions folds eviction counts recorded by put under the lock-free
// metrics path.
func (c *TopMapsCache) addEvictions(n int) {
	if c == nil || n == 0 {
		return
	}
	c.mu.Lock()
	c.evictions += int64(n)
	c.mu.Unlock()
}

// cacheKey is the cross-step cache's exact, comparable lookup key: the
// group signature (description key, record count and an FNV-1a 64 hash
// of the record positions, which distinguishes subsampled groups from
// their full selection), the candidate set, and the utility
// configuration. The candidate set is exact, not hashed: a bitset over
// interned candidate ids (see candidateID), so it is order-insensitive
// and no two candidate sets share a key.
type cacheKey struct {
	desc    string
	records int
	recHash uint64
	cands   string
	utility ratingmap.UtilityConfig
}

// FNV-1a 64 parameters (hash/fnv), inlined so hashing a record list
// costs no interface call per record.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// newCacheKey builds the lookup key for one TopMaps call. The record
// hash is O(n) but far cheaper per record than the scan it guards. ok is
// false when a candidate does not intern (an attribute outside the
// schema, a dimension out of range) or repeats: such calls bypass the
// cache rather than risk an inexact key.
func newCacheKey(db *dataset.DB, group *query.RatingGroup, candidates []ratingmap.Key, u ratingmap.UtilityConfig) (key cacheKey, ok bool) {
	nIDs := (db.Reviewers.Schema.Len() + db.Items.Schema.Len()) * len(db.Ratings.Dimensions)
	var small [64]byte
	bits := small[:0]
	if n := (nIDs + 7) / 8; n <= len(small) {
		bits = small[:n]
	} else {
		bits = make([]byte, n)
	}
	for _, k := range candidates {
		id, ok := candidateID(db, k)
		if !ok || bits[id>>3]&(1<<(id&7)) != 0 {
			return key, false
		}
		bits[id>>3] |= 1 << (id & 7)
	}
	h := uint64(fnvOffset64)
	for _, r := range group.Records {
		v := uint32(r)
		h = (h ^ uint64(v&0xff)) * fnvPrime64
		h = (h ^ uint64(v>>8&0xff)) * fnvPrime64
		h = (h ^ uint64(v>>16&0xff)) * fnvPrime64
		h = (h ^ uint64(v>>24)) * fnvPrime64
	}
	return cacheKey{
		desc:    group.Desc.Key(),
		records: len(group.Records),
		recHash: h,
		cands:   string(bits),
		utility: u,
	}, true
}

// candidateID interns a candidate as a dense integer built from (side,
// attribute index, dimension): reviewer attributes first, then item
// attributes, each spanning one id per rating dimension.
func candidateID(db *dataset.DB, k ratingmap.Key) (int, bool) {
	nDims := len(db.Ratings.Dimensions)
	if k.Dim < 0 || k.Dim >= nDims {
		return 0, false
	}
	var a int
	switch k.Side {
	case query.ReviewerSide:
		a = db.Reviewers.Schema.Index(k.Attr)
	case query.ItemSide:
		if a = db.Items.Schema.Index(k.Attr); a >= 0 {
			a += db.Reviewers.Schema.Len()
		}
	default:
		return 0, false
	}
	if a < 0 {
		return 0, false
	}
	return a*nDims + k.Dim, true
}
