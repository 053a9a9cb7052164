package engine

import (
	"cmp"
	"context"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// k builds a cache key that differs from others only in its description.
func k(desc string) cacheKey { return cacheKey{desc: desc} }

func TestTopMapsCacheLRUAndBudget(t *testing.T) {
	c := NewTopMapsCache(100)
	acc := &ratingmap.Accumulator{} // placeholder value; the cache never derefs it

	if _, _, ok := c.get(k("a")); ok {
		t.Fatal("empty cache hit")
	}
	c.put(k("a"), acc, nil, 40)
	c.put(k("b"), acc, nil, 40)
	if st := c.Stats(); st.Entries != 2 || st.UsedRecords != 80 {
		t.Fatalf("stats %+v", st)
	}
	// Touch a so b becomes LRU, then overflow: b must go first.
	if _, _, ok := c.get(k("a")); !ok {
		t.Fatal("want hit on a")
	}
	if ev := c.put(k("c"), acc, nil, 40); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	if _, _, ok := c.get(k("b")); ok {
		t.Fatal("b should have been evicted")
	}
	if _, _, ok := c.get(k("a")); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	// Oversized entries are never admitted.
	if ev := c.put(k("huge"), acc, nil, 101); ev != 0 {
		t.Fatalf("oversized put evicted %d", ev)
	}
	if _, _, ok := c.get(k("huge")); ok {
		t.Fatal("oversized entry admitted")
	}
	c.Invalidate()
	if st := c.Stats(); st.Entries != 0 || st.UsedRecords != 0 {
		t.Fatalf("post-invalidate stats %+v", st)
	}
	if _, _, ok := c.get(k("a")); ok {
		t.Fatal("hit after invalidate")
	}
}

func TestTopMapsCacheNilSafe(t *testing.T) {
	var c *TopMapsCache
	if _, _, ok := c.get(k("x")); ok {
		t.Fatal("nil cache hit")
	}
	c.put(k("x"), nil, nil, 1)
	c.addEvictions(3)
	c.Invalidate()
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil stats %+v", st)
	}
	if hr := (CacheStats{}).HitRate(); hr != 0 {
		t.Fatalf("zero hit rate = %g", hr)
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := buildRandomDB(t, rng, 5, 5, 50)
	group := wholeGroup(t, db)
	keys := allCandidates(db)
	u := ratingmap.DefaultUtilityConfig()
	key := func(group *query.RatingGroup, keys []ratingmap.Key, u ratingmap.UtilityConfig) cacheKey {
		t.Helper()
		k, ok := newCacheKey(db, group, keys, u)
		if !ok {
			t.Fatalf("candidate set %v does not intern", keys)
		}
		return k
	}

	base := key(group, keys, u)
	if base != key(group, keys, u) {
		t.Fatal("key not deterministic")
	}
	// The inlined record hash is hash/fnv's FNV-1a 64 over the
	// little-endian positions.
	h := fnv.New64a()
	for _, r := range group.Records {
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(r)))
	}
	if base.recHash != h.Sum64() || base.records != len(group.Records) {
		t.Fatalf("record hash %x over %d records, want FNV-1a %x over %d", base.recHash, base.records, h.Sum64(), len(group.Records))
	}
	// Candidate order must not matter (set semantics).
	rev := append([]ratingmap.Key(nil), keys...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if base != key(group, rev, u) {
		t.Fatal("key depends on candidate order")
	}
	// A different candidate set must change the key.
	if base == key(group, keys[:len(keys)-1], u) {
		t.Fatal("key ignores candidate set")
	}
	// Candidate sets differing only in the dimension of one candidate, or
	// only in the side of an attribute name both tables carry, must not
	// share a key.
	gender0 := ratingmap.Key{Side: query.ReviewerSide, Attr: "gender", Dim: 0}
	gender1 := ratingmap.Key{Side: query.ReviewerSide, Attr: "gender", Dim: 1}
	if key(group, []ratingmap.Key{gender0}, u) == key(group, []ratingmap.Key{gender1}, u) {
		t.Fatal("key ignores the candidate's dimension")
	}
	shared := sharedNameDB(t)
	sg := wholeGroup(t, shared)
	revName := ratingmap.Key{Side: query.ReviewerSide, Attr: "name", Dim: 0}
	itemName := ratingmap.Key{Side: query.ItemSide, Attr: "name", Dim: 0}
	kr, ok1 := newCacheKey(shared, sg, []ratingmap.Key{revName}, u)
	ki, ok2 := newCacheKey(shared, sg, []ratingmap.Key{itemName}, u)
	if !ok1 || !ok2 {
		t.Fatal("same-name attributes do not intern")
	}
	if kr == ki {
		t.Fatal("key ignores the candidate's side")
	}
	// Candidates outside the schema, or repeated, bypass the cache.
	if _, ok := newCacheKey(db, group, []ratingmap.Key{{Side: query.ItemSide, Attr: "nope"}}, u); ok {
		t.Fatal("unknown attribute interned")
	}
	if _, ok := newCacheKey(db, group, []ratingmap.Key{gender0, gender0}, u); ok {
		t.Fatal("repeated candidate interned")
	}
	// A different record subset must change the key.
	sub := &query.RatingGroup{Desc: group.Desc, Records: group.Records[:len(group.Records)-1],
		Reviewers: group.Reviewers, Items: group.Items}
	if base == key(sub, keys, u) {
		t.Fatal("key ignores record set")
	}
	// A different utility config must change the key.
	u2 := u
	u2.Normalize = true
	if base == key(group, keys, u2) {
		t.Fatal("key ignores utility config")
	}
}

// sharedNameDB builds a frozen database whose reviewer and item tables
// both carry an attribute called "name".
func sharedNameDB(t *testing.T) *dataset.DB {
	t.Helper()
	reviewers := dataset.NewEntityTable("reviewers", dataset.MustSchema(dataset.Attribute{Name: "name"}))
	items := dataset.NewEntityTable("items", dataset.MustSchema(dataset.Attribute{Name: "name"}))
	if _, err := reviewers.AppendRow("u", map[string]string{"name": "ann"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := items.AppendRow("i", map[string]string{"name": "ann"}, nil); err != nil {
		t.Fatal(err)
	}
	rt, err := dataset.NewRatingTable(dataset.Dimension{Name: "overall", Scale: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Append(0, 0, []dataset.Score{4}); err != nil {
		t.Fatal(err)
	}
	db := dataset.NewDB("shared-name", reviewers, items, rt)
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCacheMetricsWired checks the subdex_engine_cache_* counters move
// with cache traffic.
func TestCacheMetricsWired(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := buildRandomDB(t, rng, 10, 10, 500)
	group := wholeGroup(t, db)
	keys := allCandidates(db)

	reg := obs.NewRegistry()
	g := NewGenerator(db)
	g.Metrics = NewMetrics(reg)
	g.Cache = NewTopMapsCache(1 << 20)

	cfg := DefaultConfig()
	cfg.Pruning = PruneNone
	for i := 0; i < 3; i++ {
		if _, err := g.TopMaps(group, keys, ratingmap.NewSeenSet(), 4, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.Metrics.CacheMisses.Value(); got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
	if got := g.Metrics.CacheHits.Value(); got != 2 {
		t.Fatalf("hits = %d, want 2", got)
	}
	st := g.Cache.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if hr := st.HitRate(); hr < 0.66 || hr > 0.67 {
		t.Fatalf("hit rate %g, want 2/3", hr)
	}
}

// TestCacheEvictionMetrics drives the budget over capacity and checks
// evictions are counted on both the cache and the metrics registry.
func TestCacheEvictionMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := buildRandomDB(t, rng, 10, 10, 400)
	qe, err := query.NewEngine(db)
	if err != nil {
		t.Fatal(err)
	}
	keys := allCandidates(db)

	reg := obs.NewRegistry()
	g := NewGenerator(db)
	g.Metrics = NewMetrics(reg)
	// Budget fits one whole-database group only; distinct sub-groups
	// plus the root must evict.
	g.Cache = NewTopMapsCache(db.Ratings.Len() + 10)

	cfg := DefaultConfig()
	cfg.Pruning = PruneNone
	descs := []query.Description{
		{},
		query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: "age", Value: "young"}),
		query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: "age", Value: "old"}),
	}
	for _, d := range descs {
		group, err := qe.Materialize(d)
		if err != nil {
			t.Fatal(err)
		}
		if group.Len() == 0 {
			continue
		}
		if _, err := g.TopMaps(group, keys, ratingmap.NewSeenSet(), 4, cfg); err != nil {
			t.Fatal(err)
		}
	}
	st := g.Cache.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions, stats %+v", st)
	}
	if got := g.Metrics.CacheEvictions.Value(); got != st.Evictions {
		t.Fatalf("metrics evictions %d != cache evictions %d", got, st.Evictions)
	}
	if st.UsedRecords > st.BudgetRecords {
		t.Fatalf("budget overrun: %+v", st)
	}
}

// TestCacheConcurrentTopMaps hammers one shared cache from many
// goroutines (the server's concurrent-sessions shape); run under -race
// this proves the published accumulators are safely shared read-only.
func TestCacheConcurrentTopMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db := buildRandomDB(t, rng, 20, 15, 1500)
	group := wholeGroup(t, db)
	keys := allCandidates(db)

	g := NewGenerator(db)
	g.Cache = NewTopMapsCache(1 << 20)
	cfg := DefaultConfig()
	cfg.Pruning = PruneNone
	cfg.Workers = 2

	want, err := g.TopMaps(group, keys, ratingmap.NewSeenSet(), 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest := ratingmap.DigestMaps(want.Maps)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := g.TopMaps(group, keys, ratingmap.NewSeenSet(), 5, cfg)
				if err != nil {
					errs <- err
					return
				}
				if ratingmap.DigestMaps(res.Maps) != wantDigest {
					t.Error("concurrent result differs")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := g.Cache.Stats(); st.Hits < 40 {
		t.Fatalf("expected ≥40 hits, stats %+v", st)
	}
}

// TestExactOnCacheMiss verifies the opt-in: with a cache installed and
// ExactOnCacheMiss set, a group above the phase threshold skips the
// pruning machinery (miss = exact scan, populate) and the revisit hits.
func TestExactOnCacheMiss(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := buildRandomDB(t, rng, 40, 30, 9000)
	group := wholeGroup(t, db)
	keys := allCandidates(db)

	g := NewGenerator(db)
	g.Cache = NewTopMapsCache(1 << 22)
	cfg := DefaultConfig()
	cfg.MinPhaseRecords = 1000 // group is comfortably phased-eligible
	cfg.ExactOnCacheMiss = true

	first, err := g.TopMaps(group, keys, ratingmap.NewSeenSet(), 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.PrunedCI != 0 || first.PrunedMAB != 0 {
		t.Fatalf("exact-on-miss run pruned: %+v", first)
	}
	second, err := g.TopMaps(group, keys, ratingmap.NewSeenSet(), 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := g.Cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss", st)
	}
	if ratingmap.DigestMaps(first.Maps) != ratingmap.DigestMaps(second.Maps) {
		t.Fatal("hit result differs from miss result")
	}
	// Without the flag the same shape takes the phased path and, having
	// pruned, must NOT populate the cache.
	g2 := NewGenerator(db)
	g2.Cache = NewTopMapsCache(1 << 22)
	cfg2 := DefaultConfig()
	cfg2.MinPhaseRecords = 1000
	res, err := g2.TopMaps(group, keys, ratingmap.NewSeenSet(), 4, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res.PrunedCI+res.PrunedMAB > 0 {
		if st := g2.Cache.Stats(); st.Entries != 0 {
			t.Fatalf("pruned run populated the cache: %+v", st)
		}
	}
}

// warmHitAllocs bounds the heap allocations of one warm-cache TopMapsCtx
// hit with k' = 4: the cache key's candidate bitset, the result, profile
// and span bookkeeping, the finalize pass's per-call slices, and the
// snapshots, whose maps, histograms, subgroups and vectors share five
// backing arrays. Measured at 21; the bound leaves room for toolchain
// drift, not for per-candidate or per-map allocations.
const warmHitAllocs = 40

// TestWarmCacheHitAllocs: a cache hit skips the scan and re-finalizes the
// cached rows, so its allocations stay under a small constant that does
// not grow with the candidate count.
func TestWarmCacheHitAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := buildRandomDB(t, rng, 20, 20, 400)
	group := wholeGroup(t, db)
	keys := allCandidates(db)
	g := NewGenerator(db)
	g.Cache = NewTopMapsCache(1 << 20)
	cfg := DefaultConfig()
	seen := ratingmap.NewSeenSet()
	ctx := context.Background()
	warmHit := func(keys []ratingmap.Key) float64 {
		t.Helper()
		if _, err := g.TopMapsCtx(ctx, group, keys, seen, 4, cfg); err != nil {
			t.Fatal(err)
		}
		hit := true
		n := testing.AllocsPerRun(20, func() {
			res, err := g.TopMapsCtx(ctx, group, keys, seen, 4, cfg)
			hit = hit && err == nil && res.Profile.Cache == "hit"
		})
		if !hit {
			t.Fatal("warm call missed the cache")
		}
		return n
	}
	few, all := warmHit(keys[:6]), warmHit(keys)
	t.Logf("warm-cache hit: %v allocations with 6 candidates, %v with %d", few, all, len(keys))
	if all > warmHitAllocs {
		t.Fatalf("warm-cache hit allocates %v times, want at most %d", all, warmHitAllocs)
	}
	if all != few {
		t.Fatalf("warm-cache hit allocations grow with the candidate count: %v with 6, %v with %d", few, all, len(keys))
	}
}

// TestTopKMatchesStableSortPrefix: finalize's top-k′ selection returns
// exactly the first k entries of a stable descending sort, including
// when most utilities tie and k is 0, inside, or beyond the candidates.
func TestTopKMatchesStableSortPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		utils := make([]float64, rng.Intn(40))
		levels := 1 + rng.Intn(4) // few distinct values: heavy ties
		for i := range utils {
			utils[i] = float64(rng.Intn(levels)) / 2
		}
		order := make([]int, len(utils))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(utils[b], utils[a]) })
		k := rng.Intn(len(utils) + 3)
		got := topK(utils, k)
		want := order[:min(k, len(order))]
		if !slices.Equal(got, want) {
			t.Fatalf("utils %v, k=%d: topK %v, stable sort prefix %v", utils, k, got, want)
		}
	}
}
