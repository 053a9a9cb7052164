package ratingmap

// Tests for the fused columnar scan kernel and its dense rows (kernel.go).
// The exactness contract — accumulator state bit-identical to the
// map-based test oracle (oracle_test.go) on every input — is enforced
// three ways: fixture-driven unit tests here, the engine differential
// harness (7500+ randomized cases plus kernel-adversarial families,
// against its own brute-force reference), and FuzzScanKernel below, which
// fuzzes the dataset shape itself (dictionary sizes, attribute kinds,
// missing values, scales) alongside record positions and scores.

import (
	"fmt"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/query"
)

// kernelPair builds an accumulator and a map-based oracle over the same
// database and candidate set.
func kernelPair(db *dataset.DB, keys []Key) (*Accumulator, *oracle) {
	return (&Builder{DB: db}).NewAccumulator(query.Description{}, keys), newOracle(db, keys)
}

// assertAccEqual compares complete accumulator state: digests of every
// candidate snapshot, per-candidate record totals, and the shared-scan
// visit counter.
func assertAccEqual(t *testing.T, got, want accState, keys []Key, label string) {
	t.Helper()
	if g, w := accDigest(got, keys), accDigest(want, keys); g != w {
		t.Fatalf("%s: digest diverges from the oracle\n got: %s\nwant: %s", label, g, w)
	}
	for _, k := range keys {
		if got.NumRecords(k) != want.NumRecords(k) {
			t.Fatalf("%s: NumRecords(%v) %d vs %d", label, k, got.NumRecords(k), want.NumRecords(k))
		}
	}
	if got.RecordVisits() != want.RecordVisits() {
		t.Fatalf("%s: RecordVisits %d vs %d", label, got.RecordVisits(), want.RecordVisits())
	}
}

// TestKernelMatchesReferenceOnFixture scans the shared fixture whole, as a
// strict subset, with repeated positions, and empty — kernel and oracle
// must agree bit for bit after every batch.
func TestKernelMatchesReferenceOnFixture(t *testing.T) {
	db, keys := fuzzFixture(nil)
	n := db.Ratings.Len()
	full := make([]int32, n)
	for i := range full {
		full[i] = int32(i)
	}
	cases := map[string][]int32{
		"full":     full,
		"empty":    {},
		"single":   {int32(n / 2)},
		"subset":   full[: n/3 : n/3],
		"repeats":  {0, 0, 5, 5, 5, int32(n - 1), int32(n - 1), 3},
		"reversed": {int32(n - 1), 7, 3, 1, 0},
	}
	for name, records := range cases {
		kern, ref := kernelPair(db, keys)
		kern.Update(records)
		ref.Update(records)
		assertAccEqual(t, kern, ref, keys, name)
	}
}

// batch returns the record positions [lo, hi).
func batch(lo, hi int) []int32 {
	out := make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, int32(i))
	}
	return out
}

// TestKernelMultiBatchAndRemove drives the phased-engine shape: several
// Update batches with a candidate Remove in between. The rows must stay
// exact across batches and stop accumulating removed candidates exactly
// like the oracle.
func TestKernelMultiBatchAndRemove(t *testing.T) {
	db, keys := fuzzFixture(nil)
	n := db.Ratings.Len()
	kern, ref := kernelPair(db, keys)
	kern.Update(batch(0, n/3))
	ref.Update(batch(0, n/3))
	kern.Remove(keys[0])
	ref.Remove(keys[0])
	kern.Update(batch(n/3, 2*n/3))
	ref.Update(batch(n/3, 2*n/3))
	kern.Update(batch(2*n/3, n))
	ref.Update(batch(2*n/3, n))
	assertAccEqual(t, kern, ref, keys[1:], "after remove + 3 batches")
	if kern.Snapshot(keys[0]) != nil {
		t.Fatal("removed candidate still has a snapshot")
	}
}

// TestFusedKernelRemoveOneDimension prunes one dimension's candidate of an
// atomic and of a multi-valued attribute between two Update batches. The
// fused scan keeps bumping the surviving dimensions' blocks from the same
// value-id resolution: they must match the oracle bit for bit, and
// RecordVisits must still count one visit per (record, attribute).
func TestFusedKernelRemoveOneDimension(t *testing.T) {
	db, keys := fuzzFixture(nil)
	n := db.Ratings.Len()
	// fuzzFixture orders keys dimension-major: keys[0..3] are dimension 0
	// of gender, age, city, tag; keys[4..7] dimension 1.
	gender0, tag1 := keys[0], keys[7]
	kern, ref := kernelPair(db, keys)
	first := batch(0, n/2)
	kern.Update(first)
	ref.Update(first)
	kern.Remove(gender0)
	ref.Remove(gender0)
	kern.Remove(tag1)
	ref.Remove(tag1)
	second := append(batch(n/2, n), 1, 1, 2) // repeats count again
	kern.Update(second)
	ref.Update(second)

	var survivors []Key
	for _, k := range keys {
		if k != gender0 && k != tag1 {
			survivors = append(survivors, k)
		}
	}
	assertAccEqual(t, kern, ref, survivors, "after pruning one dimension")
	const attrs = 4 // gender, age, city, tag: each keeps one live dimension
	if got, want := kern.RecordVisits(), attrs*(len(first)+len(second)); got != want {
		t.Fatalf("RecordVisits = %d, want %d (one per record and attribute)", got, want)
	}
	if len(kern.Keys()) != len(survivors) {
		t.Fatalf("Keys() has %d candidates, want %d", len(kern.Keys()), len(survivors))
	}
	for i, k := range kern.Keys() {
		if k != survivors[i] {
			t.Fatalf("Keys()[%d] = %v, want %v (registration order)", i, k, survivors[i])
		}
	}
	if kern.Snapshot(gender0) != nil || kern.Snapshot(tag1) != nil {
		t.Fatal("pruned candidates still have snapshots")
	}
}

// TestNewAccumulatorNeedsFrozen: the scan reads the columnar projections
// Freeze builds, so an unfrozen database is a programming error.
func TestNewAccumulatorNeedsFrozen(t *testing.T) {
	rs := dataset.MustSchema(dataset.Attribute{Name: "g", Kind: dataset.Atomic})
	is := dataset.MustSchema(dataset.Attribute{Name: "c", Kind: dataset.Atomic})
	rt, err := dataset.NewRatingTable(dataset.Dimension{Name: "overall", Scale: 4})
	if err != nil {
		t.Fatal(err)
	}
	db := dataset.NewDB("unfrozen", dataset.NewEntityTable("reviewers", rs), dataset.NewEntityTable("items", is), rt)
	defer func() {
		if recover() == nil {
			t.Fatal("NewAccumulator on an unfrozen database did not panic")
		}
	}()
	(&Builder{DB: db}).NewAccumulator(query.Description{}, []Key{{Side: query.ReviewerSide, Attr: "g"}})
}

// fuzzShapeDB builds a database whose shape — table sizes, dictionary
// sizes, missing values, empty value sets, scales — is driven by the
// fuzzer's shape bytes. Deterministic in its input.
func fuzzShapeDB(t *testing.T, shape []byte) (*dataset.DB, []Key) {
	t.Helper()
	at := func(i int) byte {
		if len(shape) == 0 {
			return 0
		}
		return shape[i%len(shape)]
	}
	nRev := 1 + int(at(0))%6
	nItem := 1 + int(at(1))%5
	scaleA := 2 + int(at(2))%8
	scaleB := 2 + int(at(3))%4
	nRec := 1 + int(at(4))%64

	rs := dataset.MustSchema(
		dataset.Attribute{Name: "g", Kind: dataset.Atomic},
		dataset.Attribute{Name: "tags", Kind: dataset.MultiValued},
	)
	is := dataset.MustSchema(
		dataset.Attribute{Name: "city", Kind: dataset.Atomic},
		dataset.Attribute{Name: "cuisine", Kind: dataset.MultiValued},
	)
	reviewers := dataset.NewEntityTable("reviewers", rs)
	items := dataset.NewEntityTable("items", is)
	cur := 5
	next := func() int { v := int(at(cur)); cur++; return v }
	for u := 0; u < nRev; u++ {
		g := ""
		if v := next() % 5; v > 0 {
			g = fmt.Sprintf("g%d", v)
		}
		var tags []string
		for k := next() % 4; k > 0; k-- {
			tags = append(tags, fmt.Sprintf("t%d", next()%7))
		}
		if _, err := reviewers.AppendRow(fmt.Sprintf("u%d", u),
			map[string]string{"g": g}, map[string][]string{"tags": tags}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nItem; i++ {
		city := ""
		// A wide dictionary: high value ids reach records even when only a
		// few rows exist, exercising the oracle's map growth against the
		// dictionary-sized dense rows.
		if v := next() % 40; v > 0 {
			city = fmt.Sprintf("c%d", v)
		}
		var cs []string
		for k := next() % 5; k > 0; k-- {
			cs = append(cs, fmt.Sprintf("k%d", next()%25))
		}
		if _, err := items.AppendRow(fmt.Sprintf("i%d", i),
			map[string]string{"city": city}, map[string][]string{"cuisine": cs}); err != nil {
			t.Fatal(err)
		}
	}
	rt, err := dataset.NewRatingTable(
		dataset.Dimension{Name: "a", Scale: scaleA},
		dataset.Dimension{Name: "b", Scale: scaleB},
	)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nRec; r++ {
		if err := rt.Append(next()%nRev, next()%nItem, []dataset.Score{
			dataset.Score(next() % (scaleA + 1)), // 0 = missing
			dataset.Score(next() % (scaleB + 1)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	db := dataset.NewDB("fuzzshape", reviewers, items, rt)
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	var keys []Key
	for dim := 0; dim < 2; dim++ {
		keys = append(keys,
			Key{Side: query.ReviewerSide, Attr: "g", Dim: dim},
			Key{Side: query.ReviewerSide, Attr: "tags", Dim: dim},
			Key{Side: query.ItemSide, Attr: "city", Dim: dim},
			Key{Side: query.ItemSide, Attr: "cuisine", Dim: dim},
		)
	}
	return db, keys
}

// FuzzScanKernel fuzzes the dataset shape (dictionary sizes, missing
// values, scales) and the record selection (positions with repeats,
// scores) together, asserting the kernel's accumulator state is
// bit-identical to the map-based oracle — one-shot, split into two
// batches, and as three shards merged in order — and never panics.
func FuzzScanKernel(f *testing.F) {
	f.Add([]byte{3, 2, 4, 2, 20, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 1, 1, 1, 1, 0}, []byte{0, 0, 0, 0})
	f.Add([]byte{5, 4, 7, 3, 63, 39, 17, 250, 128, 9, 33, 200, 5, 81}, []byte{63, 63, 0, 1, 17, 42, 250})
	f.Add([]byte{2, 3, 2, 2, 8, 255, 254, 253, 0, 0, 0, 7}, []byte{7, 6, 5, 4, 3, 2, 1, 0})

	f.Fuzz(func(t *testing.T, shape []byte, recs []byte) {
		db, keys := fuzzShapeDB(t, shape)
		n := db.Ratings.Len()
		records := make([]int32, len(recs))
		for i, b := range recs {
			records[i] = int32(int(b) % n)
		}

		kern, ref := kernelPair(db, keys)
		kern.Update(records)
		ref.Update(records)
		assertAccEqual(t, kern, ref, keys, "one-shot")

		// The same records split into two batches must land in the same
		// state.
		b := &Builder{DB: db}
		split := b.NewAccumulator(query.Description{}, keys)
		mid := len(records) / 2
		split.Update(records[:mid])
		split.Update(records[mid:])
		assertAccEqual(t, split, ref, keys, "two-batch")

		// So must three shards accumulated privately and merged in order.
		merged := b.NewAccumulator(query.Description{}, keys)
		for w := 0; w < 3; w++ {
			sh := b.NewAccumulator(query.Description{}, keys)
			sh.Update(records[w*len(records)/3 : (w+1)*len(records)/3])
			merged.Merge(sh)
		}
		assertAccEqual(t, merged, ref, keys, "merged shards")
	})
}
