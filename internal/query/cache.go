package query

import "container/list"

// Group-materialization cache. Recommendation building materializes
// hundreds of candidate selections per step, and consecutive steps (and
// consecutive simulated subjects) revisit many of them; caching whole
// rating groups avoids the repeated record scans, in the spirit of the
// statistics-reuse frameworks the paper cites (Data Canopy [57], the
// caching of [18]). The cache is budgeted by total cached record count and
// evicts least-recently-used groups.

// groupCache is an LRU keyed by description with a record-count budget.
type groupCache struct {
	budget  int
	used    int
	order   *list.List // front = most recent; values are *cacheEntry
	entries map[string]*list.Element

	hits, misses int64
}

type cacheEntry struct {
	key   string
	group *RatingGroup
}

func newGroupCache(budget int) *groupCache {
	return &groupCache{budget: budget, order: list.New(), entries: make(map[string]*list.Element)}
}

func (c *groupCache) get(key string) (*RatingGroup, bool) {
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).group, true
}

func (c *groupCache) put(key string, g *RatingGroup) {
	if c.budget <= 0 {
		return
	}
	cost := len(g.Records)
	if cost > c.budget {
		return // singleton larger than the whole budget: never cache
	}
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	for c.used+cost > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*cacheEntry)
		c.used -= len(ev.group.Records)
		delete(c.entries, ev.key)
		c.order.Remove(back)
	}
	el := c.order.PushFront(&cacheEntry{key: key, group: g})
	c.entries[key] = el
	c.used += cost
}

// EnableGroupCache turns on materialization caching with the given budget
// (total cached rating-record count; ≤0 disables). Cached groups are shared
// and must be treated as immutable by callers — the engine's own paths
// never mutate a materialized group.
func (e *Engine) EnableGroupCache(budgetRecords int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if budgetRecords <= 0 {
		e.groups = nil
		return
	}
	e.groups = newGroupCache(budgetRecords)
}

// cachedMaterialize consults the cache before materializing.
func (e *Engine) cachedMaterialize(d Description) (*RatingGroup, bool, error) {
	key := d.Key()
	e.mu.Lock()
	if e.groups != nil {
		if g, ok := e.groups.get(key); ok {
			e.mu.Unlock()
			return g, true, nil
		}
	}
	e.mu.Unlock()

	g, err := e.materialize(d)
	if err != nil {
		return nil, false, err
	}
	e.mu.Lock()
	if e.groups != nil {
		e.groups.put(key, g)
	}
	e.mu.Unlock()
	return g, false, nil
}

// Stats is a point-in-time snapshot of the query layer's memory, served
// by the server's /debug/cache endpoint next to the engine cache.
type Stats struct {
	GroupCache    GroupCacheStats    `json:"group_cache"`
	SelectorIndex SelectorIndexStats `json:"selector_index"`
}

// GroupCacheStats describes the whole-group cache (all zero when it is
// disabled). Hits and misses count lookups since EnableGroupCache last
// (re)created the cache.
type GroupCacheStats struct {
	Entries       int   `json:"entries"`
	UsedRecords   int   `json:"used_records"`
	BudgetRecords int   `json:"budget_records"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
}

// SelectorIndexStats describes the per-selector memo: how many selectors
// are indexed and the bytes held by their entity and record bitsets.
type SelectorIndexStats struct {
	Selectors int   `json:"selectors"`
	Bytes     int64 `json:"bytes"`
}

// Stats snapshots the group cache and the selector index.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var st Stats
	if c := e.groups; c != nil {
		st.GroupCache = GroupCacheStats{
			Entries:       len(c.entries),
			UsedRecords:   c.used,
			BudgetRecords: c.budget,
			Hits:          c.hits,
			Misses:        c.misses,
		}
	}
	si := &st.SelectorIndex
	si.Selectors = len(e.sels)
	for _, ix := range e.sels {
		si.Bytes += int64(8 * len(ix.rows.words))
		if ix.records != nil {
			si.Bytes += int64(8 * len(ix.records.words))
		}
	}
	return st
}
