package engine

// Differential test harness for the sharded parallel accumulation path
// and the cross-step accumulator cache. The strategy is classic
// differential testing: an independent, slow, obviously-correct
// single-threaded reference implementation recomputes every candidate's
// subgroup histograms by brute force, and randomized datasets (seeded,
// table-driven across sizes, shard counts and worker counts — including
// workers=1 and workers much larger than the record count) assert that
// the production sharded-merge scan is EXACTLY equal on histogram counts
// and within 1e-12 on derived float moments. Anything less than exact
// equality on counts is a bug: all accumulator state is integer counts
// and merging is addition.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// buildRandomDB constructs a small synthetic subjective database with
// atomic and multi-valued attributes on both sides, missing attribute
// values, and missing scores — every branch of the accumulation hot loop.
func buildRandomDB(t testing.TB, rng *rand.Rand, nRev, nItem, nRec int) *dataset.DB {
	t.Helper()
	revSchema := dataset.MustSchema(
		dataset.Attribute{Name: "gender", Kind: dataset.Atomic},
		dataset.Attribute{Name: "age", Kind: dataset.Atomic},
		dataset.Attribute{Name: "tags", Kind: dataset.MultiValued},
	)
	itemSchema := dataset.MustSchema(
		dataset.Attribute{Name: "city", Kind: dataset.Atomic},
		dataset.Attribute{Name: "cuisine", Kind: dataset.MultiValued},
	)
	reviewers := dataset.NewEntityTable("reviewers", revSchema)
	items := dataset.NewEntityTable("items", itemSchema)

	genders := []string{"male", "female", "nonbinary", ""} // "" = missing
	ages := []string{"young", "mid", "old"}
	tags := []string{"foodie", "local", "critic", "tourist"}
	cities := []string{"nyc", "sf", "austin", ""}
	cuisines := []string{"thai", "bbq", "diner", "vegan", "pizza"}

	for u := 0; u < nRev; u++ {
		vals := map[string]string{
			"gender": genders[rng.Intn(len(genders))],
			"age":    ages[rng.Intn(len(ages))],
		}
		var tg []string
		for _, tag := range tags {
			if rng.Intn(3) == 0 {
				tg = append(tg, tag)
			}
		}
		if _, err := reviewers.AppendRow(fmt.Sprintf("u%d", u), vals,
			map[string][]string{"tags": tg}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nItem; i++ {
		vals := map[string]string{"city": cities[rng.Intn(len(cities))]}
		var cs []string
		for _, c := range cuisines {
			if rng.Intn(3) == 0 {
				cs = append(cs, c)
			}
		}
		if _, err := items.AppendRow(fmt.Sprintf("i%d", i), vals,
			map[string][]string{"cuisine": cs}); err != nil {
			t.Fatal(err)
		}
	}

	ratings, err := dataset.NewRatingTable(
		dataset.Dimension{Name: "overall", Scale: 5},
		dataset.Dimension{Name: "value", Scale: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nRec; r++ {
		scores := []dataset.Score{
			dataset.Score(rng.Intn(6)), // 0 = missing
			dataset.Score(rng.Intn(4)),
		}
		if err := ratings.Append(rng.Intn(nRev), rng.Intn(nItem), scores); err != nil {
			t.Fatal(err)
		}
	}
	db := dataset.NewDB("diff", reviewers, items, ratings)
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	return db
}

// allCandidates enumerates every (side, attribute, dimension) key.
func allCandidates(db *dataset.DB) []ratingmap.Key {
	var keys []ratingmap.Key
	for _, side := range []query.Side{query.ReviewerSide, query.ItemSide} {
		var t *dataset.EntityTable
		if side == query.ReviewerSide {
			t = db.Reviewers
		} else {
			t = db.Items
		}
		for a := 0; a < t.Schema.Len(); a++ {
			for d := range db.Ratings.Dimensions {
				keys = append(keys, ratingmap.Key{Side: side, Attr: t.Schema.At(a).Name, Dim: d})
			}
		}
	}
	return keys
}

// referenceHistograms is the slow, single-threaded, obviously-correct
// accumulator: for every candidate key it walks the record list one
// record at a time and tallies value→histogram with map bookkeeping —
// no sharing, no dense arrays, no merging. It deliberately re-derives
// the grouping semantics (atomic vs multi-valued, missing attribute
// values, missing scores) from the dataset API rather than reusing any
// ratingmap code.
func referenceHistograms(db *dataset.DB, records []int32, keys []ratingmap.Key) map[ratingmap.Key]map[dataset.ValueID][]int {
	out := make(map[ratingmap.Key]map[dataset.ValueID][]int, len(keys))
	for _, k := range keys {
		hist := make(map[dataset.ValueID][]int)
		var t *dataset.EntityTable
		var rowOf []int32
		if k.Side == query.ReviewerSide {
			t = db.Reviewers
			rowOf = db.Ratings.Reviewer
		} else {
			t = db.Items
			rowOf = db.Ratings.Item
		}
		a := t.Schema.Index(k.Attr)
		scale := db.Ratings.Dimensions[k.Dim].Scale
		add := func(v dataset.ValueID, s dataset.Score) {
			if s == 0 {
				return
			}
			h := hist[v]
			if h == nil {
				h = make([]int, scale)
				hist[v] = h
			}
			h[s-1]++
		}
		for _, r := range records {
			row := int(rowOf[r])
			s := db.Ratings.Scores[k.Dim][r]
			switch t.Schema.At(a).Kind {
			case dataset.Atomic:
				v := t.AtomicValue(a, row)
				if v == dataset.MissingValue {
					continue
				}
				add(v, s)
			case dataset.MultiValued:
				for _, v := range t.MultiValues(a, row) {
					add(v, s)
				}
			}
		}
		out[k] = hist
	}
	return out
}

// referenceDigest renders the reference histograms in RatingMap.Digest
// form, one line per key, so they compare byte for byte with
// snapshotDigest.
func referenceDigest(db *dataset.DB, ref map[ratingmap.Key]map[dataset.ValueID][]int, keys []ratingmap.Key) string {
	maps := make([]*ratingmap.RatingMap, 0, len(keys))
	for _, k := range keys {
		rm := &ratingmap.RatingMap{Key: k, Scale: db.Ratings.Dimensions[k.Dim].Scale}
		for v, h := range ref[k] {
			n := 0
			for _, c := range h {
				n += c
			}
			rm.TotalRecords += n
			rm.Subgroups = append(rm.Subgroups, ratingmap.Subgroup{Value: v, Counts: h, N: n})
		}
		maps = append(maps, rm)
	}
	return ratingmap.DigestMaps(maps)
}

// assertAccMatchesReference compares every candidate's snapshot against
// the reference: exact histogram counts, and derived float moments
// (average score, standard deviation) within 1e-12.
func assertAccMatchesReference(t *testing.T, acc *ratingmap.Accumulator,
	ref map[ratingmap.Key]map[dataset.ValueID][]int, keys []ratingmap.Key) {
	t.Helper()
	for _, k := range keys {
		rm := acc.Snapshot(k)
		if rm == nil {
			t.Fatalf("%v: no snapshot", k)
		}
		want := ref[k]
		if len(rm.Subgroups) != len(want) {
			t.Fatalf("%v: %d subgroups, reference has %d", k, len(rm.Subgroups), len(want))
		}
		totalRecords := 0
		for _, sg := range rm.Subgroups {
			wh, ok := want[sg.Value]
			if !ok {
				t.Fatalf("%v: unexpected subgroup value %d", k, sg.Value)
			}
			if len(sg.Counts) != len(wh) {
				t.Fatalf("%v value %d: scale %d vs %d", k, sg.Value, len(sg.Counts), len(wh))
			}
			n := 0
			for s := range wh {
				if sg.Counts[s] != wh[s] {
					t.Fatalf("%v value %d score %d: count %d, reference %d",
						k, sg.Value, s+1, sg.Counts[s], wh[s])
				}
				n += wh[s]
			}
			if sg.N != n {
				t.Fatalf("%v value %d: N=%d, reference %d", k, sg.Value, sg.N, n)
			}
			totalRecords += n

			// Float moments: reference recomputes them naively in float64.
			refSum, refSq := 0.0, 0.0
			for s, c := range wh {
				refSum += float64(s+1) * float64(c)
				refSq += float64(s+1) * float64(s+1) * float64(c)
			}
			refAvg := refSum / float64(n)
			refVar := refSq/float64(n) - refAvg*refAvg
			if refVar < 0 {
				refVar = 0
			}
			if d := math.Abs(sg.AvgScore() - refAvg); d > 1e-12 {
				t.Fatalf("%v value %d: avg %g vs reference %g (Δ=%g)",
					k, sg.Value, sg.AvgScore(), refAvg, d)
			}
			if d := math.Abs(sg.StdDev() - math.Sqrt(refVar)); d > 1e-9 {
				t.Fatalf("%v value %d: sd %g vs reference %g (Δ=%g)",
					k, sg.Value, sg.StdDev(), math.Sqrt(refVar), d)
			}
		}
		if rm.TotalRecords != totalRecords {
			t.Fatalf("%v: TotalRecords=%d, reference %d", k, rm.TotalRecords, totalRecords)
		}
		if got := acc.NumRecords(k); got != totalRecords {
			t.Fatalf("%v: NumRecords=%d, reference %d", k, got, totalRecords)
		}
	}
}

// TestDifferentialShardedAccumulation is the main harness: >1000
// randomized (dataset, worker-count, shard-floor) cases comparing the
// sharded parallel scan against both the sequential production scan and
// the independent reference.
func TestDifferentialShardedAccumulation(t *testing.T) {
	type shape struct{ nRev, nItem, nRec int }
	shapes := []shape{
		{1, 1, 1},
		{3, 2, 7},
		{5, 4, 40},
		{12, 9, 150},
		{25, 30, 400},
	}
	// workersFor includes the degenerate and adversarial pool sizes: 1
	// (sequential), 2..8, a count far above the record count, and 0/-1
	// (must behave like 1).
	workersFor := func(nRec int) []int {
		return []int{-1, 0, 1, 2, 3, 4, 7, 8, nRec + 13, 10 * nRec}
	}
	cases := 0
	for seed := int64(0); seed < 25; seed++ {
		for si, sh := range shapes {
			rng := rand.New(rand.NewSource(seed*1000 + int64(si)))
			db := buildRandomDB(t, rng, sh.nRev, sh.nItem, sh.nRec)
			keys := allCandidates(db)
			desc := query.Description{}
			records := make([]int32, db.Ratings.Len())
			for i := range records {
				records[i] = int32(i)
			}
			// Also exercise a strict random subset (the sampled-group path).
			subset := records[:0:0]
			for _, r := range records {
				if rng.Intn(3) > 0 {
					subset = append(subset, r)
				}
			}
			g := NewGenerator(db)
			for _, recs := range [][]int32{records, subset} {
				ref := referenceHistograms(db, recs, keys)
				seq := g.Builder.NewAccumulator(desc, keys)
				seq.Update(recs)
				seqDigest := snapshotDigest(seq, keys)
				// The fused columnar kernel must produce the digest of the
				// brute-force reference on every record set.
				if d := referenceDigest(db, ref, keys); d != seqDigest {
					t.Fatalf("seed=%d shape=%v: kernel digest differs from the brute-force reference",
						seed, sh)
				}
				for _, workers := range workersFor(len(recs)) {
					for _, minPerShard := range []int{1, 3, 64} {
						acc := g.Builder.NewAccumulator(desc, keys)
						g.accumulate(acc, recs, workers, minPerShard)
						assertAccMatchesReference(t, acc, ref, keys)
						if d := snapshotDigest(acc, keys); d != seqDigest {
							t.Fatalf("seed=%d shape=%v workers=%d minPerShard=%d: sharded digest differs from sequential",
								seed, sh, workers, minPerShard)
						}
						cases++
					}
				}
			}
		}
	}
	if cases < 1000 {
		t.Fatalf("harness ran only %d cases, want ≥ 1000", cases)
	}
	t.Logf("differential harness: %d randomized cases", cases)
}

// snapshotDigest digests every candidate's materialized state.
func snapshotDigest(acc *ratingmap.Accumulator, keys []ratingmap.Key) string {
	maps := make([]*ratingmap.RatingMap, 0, len(keys))
	for _, k := range keys {
		maps = append(maps, acc.Snapshot(k))
	}
	return ratingmap.DigestMaps(maps)
}

// TestDifferentialMergeAssociativity splits a record range at every
// boundary of a coarse grid, accumulates the pieces independently, and
// merges them in order: the result must equal the one-shot scan exactly.
func TestDifferentialMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db := buildRandomDB(t, rng, 10, 8, 200)
	keys := allCandidates(db)
	g := NewGenerator(db)
	records := make([]int32, db.Ratings.Len())
	for i := range records {
		records[i] = int32(i)
	}
	whole := g.Builder.NewAccumulator(query.Description{}, keys)
	whole.Update(records)
	want := snapshotDigest(whole, keys)

	for pieces := 2; pieces <= 7; pieces++ {
		merged := g.Builder.NewAccumulator(query.Description{}, keys)
		for p := 0; p < pieces; p++ {
			lo := p * len(records) / pieces
			hi := (p + 1) * len(records) / pieces
			part := g.Builder.NewAccumulator(query.Description{}, keys)
			part.Update(records[lo:hi])
			merged.Merge(part)
		}
		if got := snapshotDigest(merged, keys); got != want {
			t.Fatalf("pieces=%d: merged digest differs from one-shot scan", pieces)
		}
	}
}

// TestDifferentialTopMapsParallelVsSequential runs the full TopMaps
// pipeline (not just the scan) with Workers=1 and Workers=8 on identical
// inputs: maps, utilities and counters must match bit-for-bit.
func TestDifferentialTopMapsParallelVsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := buildRandomDB(t, rng, 30, 25, 3000)
	keys := allCandidates(db)
	g := NewGenerator(db)
	group := wholeGroup(t, db)

	run := func(workers int) *Result {
		cfg := DefaultConfig()
		cfg.Pruning = PruneNone
		cfg.Workers = workers
		res, err := g.TopMaps(group, keys, ratingmap.NewSeenSet(), 6, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(8)
	if ratingmap.DigestMaps(seq.Maps) != ratingmap.DigestMaps(par.Maps) {
		t.Fatal("parallel TopMaps maps differ from sequential")
	}
	if len(seq.Utilities) != len(par.Utilities) {
		t.Fatalf("utility count %d vs %d", len(seq.Utilities), len(par.Utilities))
	}
	for i := range seq.Utilities {
		if seq.Utilities[i] != par.Utilities[i] {
			t.Fatalf("utility[%d]: %g vs %g", i, seq.Utilities[i], par.Utilities[i])
		}
	}
}

func wholeGroup(t testing.TB, db *dataset.DB) *query.RatingGroup {
	t.Helper()
	qe, err := query.NewEngine(db)
	if err != nil {
		t.Fatal(err)
	}
	group, err := qe.Materialize(query.Description{})
	if err != nil {
		t.Fatal(err)
	}
	return group
}

// TestDifferentialCacheHitExactness: with a cache installed, a second
// TopMaps call on the same inputs must (a) hit, (b) return a Result
// identical to the uncached call, and (c) match a cache-less generator.
func TestDifferentialCacheHitExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := buildRandomDB(t, rng, 20, 15, 2500)
	keys := allCandidates(db)
	group := wholeGroup(t, db)

	cfg := DefaultConfig()
	cfg.Pruning = PruneNone
	cfg.Workers = 4

	plain := NewGenerator(db)
	want, err := plain.TopMaps(group, keys, ratingmap.NewSeenSet(), 6, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cached := NewGenerator(db)
	cached.Cache = NewTopMapsCache(1 << 20)
	first, err := cached.TopMaps(group, keys, ratingmap.NewSeenSet(), 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cached.TopMaps(group, keys, ratingmap.NewSeenSet(), 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := cached.Cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", st)
	}
	for name, got := range map[string]*Result{"first": first, "second": second} {
		if ratingmap.DigestMaps(got.Maps) != ratingmap.DigestMaps(want.Maps) {
			t.Fatalf("%s: maps differ from cache-less generator", name)
		}
		for i := range want.Utilities {
			if got.Utilities[i] != want.Utilities[i] {
				t.Fatalf("%s: utility[%d] %g vs %g", name, i, got.Utilities[i], want.Utilities[i])
			}
		}
		if got.RecordsProcessed != want.RecordsProcessed || got.Degraded != want.Degraded {
			t.Fatalf("%s: counters differ: %+v vs %+v", name, got, want)
		}
	}
}

// TestDifferentialCacheSeenSetFreshness guards the cache's central
// correctness claim: hits re-finalize against the CURRENT seen set, so a
// history accumulated between two identical steps must change the
// ranking exactly as it would without a cache.
func TestDifferentialCacheSeenSetFreshness(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	db := buildRandomDB(t, rng, 20, 15, 2000)
	keys := allCandidates(db)
	group := wholeGroup(t, db)

	cfg := DefaultConfig()
	cfg.Pruning = PruneNone

	runPair := func(g *Generator) (*Result, *Result) {
		seen := ratingmap.NewSeenSet()
		a, err := g.TopMaps(group, keys, seen, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rm := range a.Maps {
			seen.Add(rm)
		}
		b, err := g.TopMaps(group, keys, seen, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}

	plain := NewGenerator(db)
	wantA, wantB := runPair(plain)
	withCache := NewGenerator(db)
	withCache.Cache = NewTopMapsCache(1 << 20)
	gotA, gotB := runPair(withCache)
	if st := withCache.Cache.Stats(); st.Hits != 1 {
		t.Fatalf("second step should hit, stats %+v", st)
	}
	if ratingmap.DigestMaps(gotA.Maps) != ratingmap.DigestMaps(wantA.Maps) {
		t.Fatal("step 1 maps differ with cache installed")
	}
	if ratingmap.DigestMaps(gotB.Maps) != ratingmap.DigestMaps(wantB.Maps) {
		t.Fatal("step 2 maps differ with cache installed")
	}
	for i := range wantB.Utilities {
		if gotB.Utilities[i] != wantB.Utilities[i] {
			t.Fatalf("step 2 utility[%d]: %g vs %g", i, gotB.Utilities[i], wantB.Utilities[i])
		}
	}
}

// assertKernelFamily runs one adversarial record set through every scan
// path — fused kernel, independent brute-force reference, and the sharded
// pool — and demands bit-identical digests everywhere.
func assertKernelFamily(t *testing.T, db *dataset.DB, records []int32) {
	t.Helper()
	keys := allCandidates(db)
	desc := query.Description{}
	ref := referenceHistograms(db, records, keys)

	kernelB := ratingmap.Builder{DB: db}

	kacc := kernelB.NewAccumulator(desc, keys)
	kacc.Update(records)
	assertAccMatchesReference(t, kacc, ref, keys)
	want := snapshotDigest(kacc, keys)
	if got := referenceDigest(db, ref, keys); got != want {
		t.Fatal("kernel digest differs from the brute-force reference")
	}

	g := &Generator{DB: db, Builder: kernelB}
	for _, workers := range []int{2, 5, len(records) + 3} {
		acc := kernelB.NewAccumulator(desc, keys)
		g.accumulate(acc, records, workers, 1)
		if got := snapshotDigest(acc, keys); got != want {
			t.Fatalf("workers=%d: sharded kernel digest differs from one-shot", workers)
		}
	}
}

// TestDifferentialKernelAdversarial crafts record sets aimed at the fused
// kernel's specific failure modes: repeated value IDs inside multi-valued
// sets, rows with every value missing, all-zero score columns, wide
// dictionaries hit high-id-first, empty record ranges, and single-record
// groups. Each family must be digest-identical across the kernel, brute
// force, and the sharded pool.
func TestDifferentialKernelAdversarial(t *testing.T) {
	mustRow := func(t *testing.T, et *dataset.EntityTable, id string,
		vals map[string]string, multi map[string][]string) {
		t.Helper()
		if _, err := et.AppendRow(id, vals, multi); err != nil {
			t.Fatal(err)
		}
	}
	freeze := func(t *testing.T, rev, item *dataset.EntityTable,
		ratings *dataset.RatingTable) *dataset.DB {
		t.Helper()
		db := dataset.NewDB("adv", rev, item, ratings)
		if err := db.Freeze(); err != nil {
			t.Fatal(err)
		}
		return db
	}
	newTables := func(t *testing.T) (*dataset.EntityTable, *dataset.EntityTable, *dataset.RatingTable) {
		t.Helper()
		rev := dataset.NewEntityTable("reviewers", dataset.MustSchema(
			dataset.Attribute{Name: "gender", Kind: dataset.Atomic},
			dataset.Attribute{Name: "tags", Kind: dataset.MultiValued},
		))
		item := dataset.NewEntityTable("items", dataset.MustSchema(
			dataset.Attribute{Name: "city", Kind: dataset.Atomic},
			dataset.Attribute{Name: "cuisine", Kind: dataset.MultiValued},
		))
		ratings, err := dataset.NewRatingTable(
			dataset.Dimension{Name: "overall", Scale: 5},
			dataset.Dimension{Name: "value", Scale: 3},
		)
		if err != nil {
			t.Fatal(err)
		}
		return rev, item, ratings
	}
	allRecords := func(db *dataset.DB) []int32 {
		recs := make([]int32, db.Ratings.Len())
		for i := range recs {
			recs[i] = int32(i)
		}
		return recs
	}

	t.Run("repeated-multivalues", func(t *testing.T) {
		// Every reviewer shares the same overlapping tag sets, and the
		// input slice repeats tags — the scan must count each stored set
		// member exactly once per record regardless.
		rev, item, ratings := newTables(t)
		for u := 0; u < 4; u++ {
			mustRow(t, rev, fmt.Sprintf("u%d", u), map[string]string{"gender": "x"},
				map[string][]string{"tags": {"a", "b", "a", "b", "a"}})
		}
		mustRow(t, item, "i0", map[string]string{"city": "nyc"},
			map[string][]string{"cuisine": {"thai", "thai", "bbq"}})
		for r := 0; r < 60; r++ {
			if err := ratings.Append(r%4, 0, []dataset.Score{
				dataset.Score(1 + r%5), dataset.Score(1 + r%3)}); err != nil {
				t.Fatal(err)
			}
		}
		db := freeze(t, rev, item, ratings)
		assertKernelFamily(t, db, allRecords(db))
	})

	t.Run("all-missing-values", func(t *testing.T) {
		// Rows whose every attribute is missing (ValueID 0 / empty sets):
		// the kernel's discard row must swallow them without a trace.
		rev, item, ratings := newTables(t)
		for u := 0; u < 3; u++ {
			mustRow(t, rev, fmt.Sprintf("u%d", u), map[string]string{}, nil)
		}
		mustRow(t, item, "i0", map[string]string{}, nil)
		mustRow(t, item, "i1", map[string]string{"city": "sf"},
			map[string][]string{"cuisine": {"vegan"}})
		for r := 0; r < 40; r++ {
			if err := ratings.Append(r%3, r%2, []dataset.Score{
				dataset.Score(r % 6), dataset.Score(r % 4)}); err != nil {
				t.Fatal(err)
			}
		}
		db := freeze(t, rev, item, ratings)
		assertKernelFamily(t, db, allRecords(db))
	})

	t.Run("all-zero-scores", func(t *testing.T) {
		// One dimension entirely missing scores, the other mixed: the
		// kernel's discard column absorbs the zero-score increments.
		rev, item, ratings := newTables(t)
		mustRow(t, rev, "u0", map[string]string{"gender": "y"},
			map[string][]string{"tags": {"a"}})
		mustRow(t, item, "i0", map[string]string{"city": "austin"},
			map[string][]string{"cuisine": {"bbq", "diner"}})
		for r := 0; r < 30; r++ {
			if err := ratings.Append(0, 0, []dataset.Score{
				0, dataset.Score(r % 4)}); err != nil {
				t.Fatal(err)
			}
		}
		db := freeze(t, rev, item, ratings)
		assertKernelFamily(t, db, allRecords(db))
	})

	t.Run("high-value-ids-first", func(t *testing.T) {
		// A wide dictionary (~50 IDs per attribute) with records ordered
		// so the highest value IDs are scanned before the lowest: the
		// reference path's counts slice grows in a completely different
		// pattern than the kernel's pre-sized dense block, and the digest
		// must not notice.
		rev, item, ratings := newTables(t)
		const wide = 50
		for u := 0; u < wide; u++ {
			mustRow(t, rev, fmt.Sprintf("u%d", u),
				map[string]string{"gender": fmt.Sprintf("g%02d", u)},
				map[string][]string{"tags": {fmt.Sprintf("t%02d", u), "shared"}})
		}
		mustRow(t, item, "i0", map[string]string{"city": "nyc"},
			map[string][]string{"cuisine": {"thai"}})
		for u := wide - 1; u >= 0; u-- { // descending: high IDs hit first
			for rep := 0; rep < 2; rep++ {
				if err := ratings.Append(u, 0, []dataset.Score{
					dataset.Score(1 + (u+rep)%5), dataset.Score(1 + u%3)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		db := freeze(t, rev, item, ratings)
		assertKernelFamily(t, db, allRecords(db))
	})

	t.Run("empty-and-single-record", func(t *testing.T) {
		rev, item, ratings := newTables(t)
		mustRow(t, rev, "u0", map[string]string{"gender": "z"},
			map[string][]string{"tags": {"a", "b"}})
		mustRow(t, rev, "u1", map[string]string{}, nil)
		mustRow(t, item, "i0", map[string]string{"city": "sf"}, nil)
		for r := 0; r < 10; r++ {
			if err := ratings.Append(r%2, 0, []dataset.Score{
				dataset.Score(r % 6), dataset.Score(1 + r%3)}); err != nil {
				t.Fatal(err)
			}
		}
		db := freeze(t, rev, item, ratings)
		assertKernelFamily(t, db, nil)       // empty range
		assertKernelFamily(t, db, []int32{}) // empty non-nil range
		for r := int32(0); r < 10; r++ {     // every single-record group
			assertKernelFamily(t, db, []int32{r})
		}
	})
}

// TestShardMinRecordsConfig proves the ShardMinRecords knob is plumbed
// from Config through TopMaps into the shard pool: the default floor
// keeps a small group sequential no matter how many workers are
// configured, a floor of 1 shards the same group, and both produce
// bit-identical maps.
func TestShardMinRecordsConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := buildRandomDB(t, rng, 12, 10, 1200)
	keys := allCandidates(db)
	g := NewGenerator(db)
	group := wholeGroup(t, db)

	run := func(workers, minPerShard int) *Result {
		cfg := DefaultConfig()
		cfg.Pruning = PruneNone
		cfg.Workers = workers
		cfg.ShardMinRecords = minPerShard
		res, err := g.TopMaps(group, keys, ratingmap.NewSeenSet(), 6, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// 1200 records sit below the 2048 default floor: sequential scan,
	// whether the floor is spelled out or left 0 for normalization.
	if res := run(8, 0); res.Profile.Shards != 1 {
		t.Fatalf("ShardMinRecords=0 (default): Shards=%d, want 1", res.Profile.Shards)
	}
	if res := run(8, defaultShardMinRecords); res.Profile.Shards != 1 {
		t.Fatalf("ShardMinRecords=default: Shards=%d, want 1", res.Profile.Shards)
	}

	sharded := run(8, 1)
	if sharded.Profile.Shards <= 1 {
		t.Fatalf("ShardMinRecords=1, Workers=8: Shards=%d, want >1", sharded.Profile.Shards)
	}
	seq := run(1, 1)
	if ratingmap.DigestMaps(sharded.Maps) != ratingmap.DigestMaps(seq.Maps) {
		t.Fatal("sharded maps differ from sequential with ShardMinRecords=1")
	}
}
