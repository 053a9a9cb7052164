package query

// Exactness of group materialization. Materialize intersects memoized
// per-selector record bitsets; these tests hold it to a brute-force
// reference that tests every rating record against every selector through
// the record's reviewer or item row, on random databases with
// multi-valued attributes, missing values, entities without ratings and
// values no rated entity carries.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"subdex/internal/dataset"
)

// randomDB builds a frozen database from seed. Reviewers carry an atomic
// gender, an atomic age with missing values and a multi-valued tags set
// that may be empty; items carry an atomic city with missing values and a
// multi-valued cuisine set. Ratings draw from the first ~3/4 of each
// table, so the rest are entities without records, and the value "solo"
// is held by one unrated entity per side.
func randomDB(tb testing.TB, seed int64, nRev, nItem, nRec int) *dataset.DB {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	pick := func(vs ...string) string { return vs[rng.Intn(len(vs))] }
	subset := func(vs ...string) []string {
		var out []string
		for _, v := range vs {
			if rng.Intn(3) == 0 {
				out = append(out, v)
			}
		}
		return out
	}
	rs := dataset.MustSchema(
		dataset.Attribute{Name: "gender"},
		dataset.Attribute{Name: "age"},
		dataset.Attribute{Name: "tags", Kind: dataset.MultiValued})
	is := dataset.MustSchema(
		dataset.Attribute{Name: "city"},
		dataset.Attribute{Name: "cuisine", Kind: dataset.MultiValued})
	reviewers := dataset.NewEntityTable("reviewers", rs)
	items := dataset.NewEntityTable("items", is)
	for u := 0; u < nRev; u++ {
		vals := map[string]string{"gender": pick("F", "M"), "age": pick("", "young", "middle", "old")}
		tags := map[string][]string{"tags": subset("elite", "local", "critic", "new")}
		if u == nRev-1 {
			vals["age"], tags["tags"] = "solo", []string{"solo"}
		}
		if _, err := reviewers.AppendRow(fmt.Sprintf("u%d", u), vals, tags); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < nItem; i++ {
		vals := map[string]string{"city": pick("", "NYC", "Austin", "Detroit", "Charlotte")}
		cs := map[string][]string{"cuisine": subset("sushi", "bbq", "pizza", "thai", "tacos")}
		if i == nItem-1 {
			vals["city"], cs["cuisine"] = "solo", []string{"solo"}
		}
		if _, err := items.AppendRow(fmt.Sprintf("i%d", i), vals, cs); err != nil {
			tb.Fatal(err)
		}
	}
	rt, err := dataset.NewRatingTable(dataset.Dimension{Name: "overall", Scale: 5})
	if err != nil {
		tb.Fatal(err)
	}
	rated := func(n int) int { return rng.Intn(max(1, (3*n)/4)) }
	for r := 0; r < nRec; r++ {
		score := []dataset.Score{dataset.Score(1 + rng.Intn(5))}
		if err := rt.Append(rated(nRev), rated(nItem), score); err != nil {
			tb.Fatal(err)
		}
	}
	db := dataset.NewDB("rand", reviewers, items, rt)
	if err := db.Freeze(); err != nil {
		tb.Fatal(err)
	}
	return db
}

// attrRef names one attribute of the random schema for description
// generation.
type attrRef struct {
	side Side
	attr string
}

var randomAttrs = []attrRef{
	{ReviewerSide, "gender"}, {ReviewerSide, "age"}, {ReviewerSide, "tags"},
	{ItemSide, "city"}, {ItemSide, "cuisine"},
}

// describe decodes bytes into a description of at most four selectors on
// distinct attributes: each byte pair picks an attribute and one of its
// registered values, the missing label included.
func describe(e *Engine, b []byte) Description {
	var sels []Selector
	used := map[int]bool{}
	for i := 0; i+1 < len(b) && len(sels) < 4; i += 2 {
		ai := int(b[i]) % len(randomAttrs)
		if used[ai] {
			continue
		}
		used[ai] = true
		ref := randomAttrs[ai]
		t := e.table(ref.side)
		vals := append([]string{dataset.MissingLabel}, t.DictByName(ref.attr).Values()...)
		sels = append(sels, Selector{Side: ref.side, Attr: ref.attr, Value: vals[int(b[i+1])%len(vals)]})
	}
	return MustDescription(sels...)
}

// bruteGroup is the reference: entity rows matching every selector of
// their side, and the records whose reviewer and item both match.
func bruteGroup(db *dataset.DB, d Description) (records []int32, reviewers, items []bool) {
	match := func(t *dataset.EntityTable, side Side, row int) bool {
		for _, s := range d.SideSelectors(side) {
			a := t.Schema.Index(s.Attr)
			v, ok := t.Dict(a).Lookup(s.Value)
			if !ok || !t.HasValue(a, row, v) {
				return false
			}
		}
		return true
	}
	reviewers = make([]bool, db.Reviewers.Len())
	for u := range reviewers {
		reviewers[u] = match(db.Reviewers, ReviewerSide, u)
	}
	items = make([]bool, db.Items.Len())
	for i := range items {
		items[i] = match(db.Items, ItemSide, i)
	}
	for r := 0; r < db.Ratings.Len(); r++ {
		if match(db.Reviewers, ReviewerSide, int(db.Ratings.Reviewer[r])) &&
			match(db.Items, ItemSide, int(db.Ratings.Item[r])) {
			records = append(records, int32(r))
		}
	}
	return records, reviewers, items
}

// checkGroup compares a materialized group with the reference.
func checkGroup(t testing.TB, db *dataset.DB, d Description, g *RatingGroup) {
	t.Helper()
	want, wantU, wantI := bruteGroup(db, d)
	if len(g.Records) != len(want) {
		t.Fatalf("%s: %d records, reference %d\ngot  %v\nwant %v", d, len(g.Records), len(want), g.Records, want)
	}
	for i := range want {
		if g.Records[i] != want[i] {
			t.Fatalf("%s: Records[%d] = %d, reference %d", d, i, g.Records[i], want[i])
		}
	}
	for side, bs := range map[string]struct {
		got  *Bitset
		want []bool
	}{"reviewers": {g.Reviewers, wantU}, "items": {g.Items, wantI}} {
		if bs.got.Universe() != len(bs.want) {
			t.Fatalf("%s: %s universe %d, table %d", d, side, bs.got.Universe(), len(bs.want))
		}
		for row, w := range bs.want {
			if bs.got.Has(row) != w {
				t.Fatalf("%s: %s row %d in group = %v, reference %v", d, side, row, bs.got.Has(row), w)
			}
		}
	}
}

// TestMaterializeDifferential materializes random descriptions of 0-4
// selectors on random databases, on a fresh engine, on the same engine
// once its selector index is warm, and through the group cache.
func TestMaterializeDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		db := randomDB(t, seed, 5+int(seed)*7, 4+int(seed)*5, 40+int(seed)*60)
		fresh, _ := NewEngine(db)
		cached, _ := NewEngine(db)
		cached.EnableGroupCache(db.Ratings.Len())
		rng := rand.New(rand.NewSource(seed))
		for n := 0; n < 150; n++ {
			b := make([]byte, 2*rng.Intn(5))
			rng.Read(b)
			d := describe(fresh, b)
			for _, e := range []*Engine{fresh, fresh, cached, cached} {
				g, err := e.Materialize(d)
				if err != nil {
					t.Fatalf("seed %d: %s: %v", seed, d, err)
				}
				checkGroup(t, db, d, g)
			}
		}
	}
}

// TestMaterializeEdgeCases pins the short-cuts: the empty description
// selects every record, a side no entity satisfies empties the group, and
// a value only unrated entities hold selects entities but no records.
func TestMaterializeEdgeCases(t *testing.T) {
	db := randomDB(t, 7, 30, 20, 300)
	e, _ := NewEngine(db)
	cases := []struct {
		d           Description
		wantRecords int // -1: whatever the reference says
	}{
		{MustDescription(), db.Ratings.Len()},
		{MustDescription(sel(ReviewerSide, "age", "solo"), sel(ReviewerSide, "gender", "F"),
			sel(ReviewerSide, "tags", "critic")), 0},
		{MustDescription(sel(ReviewerSide, "tags", "solo")), 0},
		{MustDescription(sel(ItemSide, "cuisine", "solo"), sel(ReviewerSide, "gender", "M")), 0},
		{MustDescription(sel(ReviewerSide, "age", dataset.MissingLabel)), -1},
		{MustDescription(sel(ItemSide, "city", dataset.MissingLabel), sel(ItemSide, "cuisine", "sushi")), -1},
	}
	for _, c := range cases {
		g, err := e.Materialize(c.d)
		if err != nil {
			t.Fatalf("%s: %v", c.d, err)
		}
		checkGroup(t, db, c.d, g)
		if c.wantRecords >= 0 && g.Len() != c.wantRecords {
			t.Fatalf("%s: %d records, want %d", c.d, g.Len(), c.wantRecords)
		}
	}
	if _, err := e.Materialize(MustDescription(sel(ItemSide, "city", "Atlantis"))); err == nil {
		t.Fatal("an unregistered value must fail materialization")
	}
}

// TestMaterializeConcurrentFirstUse materializes overlapping descriptions
// from many goroutines on a fresh engine, so first-use builds of the same
// selector's entity and record bitsets race. Run under -race.
func TestMaterializeConcurrentFirstUse(t *testing.T) {
	db := randomDB(t, 11, 40, 30, 500)
	e, _ := NewEngine(db)
	e.EnableGroupCache(db.Ratings.Len() / 2)
	rng := rand.New(rand.NewSource(11))
	descs := make([]Description, 24)
	for i := range descs {
		b := make([]byte, 2+2*rng.Intn(4))
		rng.Read(b)
		descs[i] = describe(e, b)
	}
	const workers = 8
	got := make([][]*RatingGroup, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range descs {
				g, err := e.Materialize(descs[(i+w)%len(descs)])
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], g)
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, g := range got[w] {
			checkGroup(t, db, descs[(i+w)%len(descs)], g)
		}
	}
	st := e.Stats().SelectorIndex
	if st.Selectors == 0 || st.Bytes == 0 {
		t.Fatalf("selector index after concurrent use: %+v", st)
	}
}

// TestQueryStats checks the snapshot /debug/cache serves: group-cache
// occupancy and hit/miss counts, and the selector index's size.
func TestQueryStats(t *testing.T) {
	db := randomDB(t, 3, 20, 15, 200)
	e, _ := NewEngine(db)
	if st := e.Stats(); st != (Stats{}) {
		t.Fatalf("fresh engine stats %+v", st)
	}
	e.EnableGroupCache(db.Ratings.Len())
	d := MustDescription(sel(ReviewerSide, "gender", "F"), sel(ItemSide, "city", "NYC"))
	e.Materialize(d)
	e.Materialize(d)
	if _, err := e.EntityGroup(MustDescription(sel(ItemSide, "cuisine", "thai")), ItemSide); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	gc := st.GroupCache
	if gc.Hits != 1 || gc.Misses != 1 || gc.Entries != 1 || gc.BudgetRecords != db.Ratings.Len() {
		t.Fatalf("group cache stats %+v", gc)
	}
	g, _ := e.Materialize(d)
	if gc.UsedRecords != g.Len() {
		t.Fatalf("used records %d, group has %d", gc.UsedRecords, g.Len())
	}
	// Three selectors indexed; only the two materialized hold a record
	// bitset.
	si := st.SelectorIndex
	recWords, revWords, itemWords := (db.Ratings.Len()+63)/64, (db.Reviewers.Len()+63)/64, (db.Items.Len()+63)/64
	wantBytes := int64(8 * (revWords + 2*itemWords + 2*recWords))
	if si.Selectors != 3 || si.Bytes != wantBytes {
		t.Fatalf("selector index stats %+v, want 3 selectors and %d bytes", si, wantBytes)
	}
}

// FuzzMaterialize drives materialization with fuzzer-chosen databases
// and descriptions against the brute-force reference, on a fresh engine
// and again once the selector index is warm.
//
// Seed corpus (testdata/fuzz/FuzzMaterialize): the empty description,
// one to four selectors, multi-valued and missing-value selectors, empty
// sides, and record counts on both sides of a 64-bit word boundary.
func FuzzMaterialize(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(5), uint16(40), []byte{})
	f.Add(int64(2), uint8(10), uint8(8), uint16(64), []byte{0, 1})
	f.Add(int64(3), uint8(12), uint8(9), uint16(65), []byte{2, 3, 4, 2})
	f.Add(int64(4), uint8(20), uint8(15), uint16(200), []byte{1, 0, 3, 0, 4, 5})
	f.Add(int64(5), uint8(30), uint8(25), uint16(300), []byte{0, 1, 1, 2, 2, 3, 3, 4})
	f.Fuzz(func(t *testing.T, seed int64, nRev, nItem uint8, nRec uint16, sels []byte) {
		db := randomDB(t, seed, 1+int(nRev)%48, 1+int(nItem)%48, int(nRec)%600)
		e, _ := NewEngine(db)
		d := describe(e, sels)
		for pass := 0; pass < 2; pass++ {
			g, err := e.Materialize(d)
			if err != nil {
				t.Fatalf("%s: %v", d, err)
			}
			checkGroup(t, db, d, g)
		}
	})
}
