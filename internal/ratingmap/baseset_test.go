package ratingmap

// Tests for the sealed, pointer-light accumulator: BaseSet memoization,
// Remove's member rewiring, Seal, and the snapshot vectors.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"subdex/internal/query"
)

// randomSeenSet builds a history from maps over random record subsets,
// mixing the fixture's two scales (5 and 3) and, sometimes, a scale no
// candidate has, so every seen-set shape global peculiarity skips or
// compares is covered.
func randomSeenSet(r *rand.Rand, b *Builder, keys []Key, n int) *SeenSet {
	seen := NewSeenSet()
	for j := r.Intn(5); j > 0; j-- {
		recs := make([]int32, 1+r.Intn(n))
		for i := range recs {
			recs[i] = int32(r.Intn(n))
		}
		for _, rm := range b.Build(query.Description{}, recs, keys[r.Intn(len(keys)):]) {
			if r.Intn(3) == 0 {
				seen.Add(rm)
			}
		}
	}
	if r.Intn(4) == 0 {
		seen.AddDist(0, []float64{0.1, 0.2, 0.3, 0.4})
	}
	return seen
}

// TestBaseSetScoresExact: a BaseSet bound to a seen history scores every
// candidate exactly as CriteriaEstimateAt at recordScale 1, bit for bit,
// under every peculiarity measure, for random record sets and seen sets,
// including candidates without subgroups (an attribute outside the
// schema, and every candidate of an empty scan).
func TestBaseSetScoresExact(t *testing.T) {
	db, fixtureKeys := fuzzFixture(nil)
	keys := append(append([]Key(nil), fixtureKeys...), Key{Side: query.ItemSide, Attr: "nosuch", Dim: 1})
	b := &Builder{DB: db}
	n := db.Ratings.Len()
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		recs := make([]int32, r.Intn(2*n))
		for i := range recs {
			recs[i] = int32(r.Intn(n))
		}
		acc := b.NewAccumulator(query.Description{}, keys)
		acc.Update(recs)
		seen := randomSeenSet(r, b, fixtureKeys, n)
		for _, m := range []PeculiarityMeasure{PecTVD, PecKL} {
			base := NewBaseSet(acc, m)
			for _, s := range []*SeenSet{nil, NewSeenSet(), seen} {
				bound := base.Against(s)
				for i, k := range keys {
					got, want := bound.At(i), acc.CriteriaEstimateAt(i, s, 1, m)
					for c := Criterion(0); c < NumCriteria; c++ {
						if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
							t.Fatalf("trial %d, %v, %v: criterion %d = %v, CriteriaEstimateAt says %v",
								trial, m, k, c, got[c], want[c])
						}
					}
				}
			}
		}
	}
}

// TestBaseSetDistinctDistributions: the set stores each distinct pooled
// distribution once, however many candidates share it, so Against
// scores it once. Every fixture candidate is registered twice; the
// stored count must equal the number of distinct Distribution() vectors
// among the candidates' snapshots, and both copies of a candidate must
// point at the same one.
func TestBaseSetDistinctDistributions(t *testing.T) {
	db, keys := fuzzFixture(nil)
	b := &Builder{DB: db}
	twice := append(append([]Key(nil), keys...), keys...)
	acc := b.NewAccumulator(query.Description{}, twice)
	acc.Update(batch(0, db.Ratings.Len()))
	base := NewBaseSet(acc, PecTVD)

	var distinct [][]float64
	for i := range keys {
		d := acc.SnapshotAt(i).Distribution()
		if !slices.ContainsFunc(distinct, func(x []float64) bool { return slices.Equal(x, d) }) {
			distinct = append(distinct, d)
		}
	}
	if len(base.dists) != len(distinct) {
		t.Fatalf("BaseSet stores %d pooled distributions, the snapshots have %d distinct ones",
			len(base.dists), len(distinct))
	}
	for i := range keys {
		if base.base[i].dist != base.base[i+len(keys)].dist {
			t.Fatalf("%v: equal candidates store different distributions", keys[i])
		}
	}
}

// TestBaseSetAgainstAllocs: binding a BaseSet to a history allocates one
// slice, and scoring a candidate allocates nothing, under the default
// measure.
func TestBaseSetAgainstAllocs(t *testing.T) {
	db, keys := fuzzFixture(nil)
	b := &Builder{DB: db}
	acc := b.NewAccumulator(query.Description{}, keys)
	acc.Update(batch(0, db.Ratings.Len()))
	base := NewBaseSet(acc, PecTVD)
	seen := randomSeenSet(rand.New(rand.NewSource(3)), b, keys, db.Ratings.Len())
	if n := testing.AllocsPerRun(50, func() {
		bound := base.Against(seen)
		for i := range keys {
			_ = bound.At(i)
		}
	}); n != 1 {
		t.Fatalf("binding and scoring a BaseSet allocates %v times, want 1", n)
	}
}

// TestRemoveMiddleRewiresScans removes a middle candidate between two
// Update batches. The fixture orders keys dimension-major, so every
// candidate after it — members of all four attribute scans — moves up
// one Keys() position; the rows must still match the map-based oracle,
// by key and by position.
func TestRemoveMiddleRewiresScans(t *testing.T) {
	db, keys := fuzzFixture(nil)
	n := db.Ratings.Len()
	kern, ref := kernelPair(db, keys)
	kern.Update(batch(0, n/2))
	ref.Update(batch(0, n/2))
	mid := keys[2] // city, dimension 0: followed by tag, gender, age, city
	kern.Remove(mid)
	ref.Remove(mid)
	kern.Update(batch(n/2, n))
	ref.Update(batch(n/2, n))

	survivors := append(append([]Key(nil), keys[:2]...), keys[3:]...)
	assertAccEqual(t, kern, ref, survivors, "after removing a middle candidate")
	for i, k := range kern.Keys() {
		if k != survivors[i] {
			t.Fatalf("Keys()[%d] = %v, want %v", i, k, survivors[i])
		}
		if got, want := kern.SnapshotAt(i).Digest(), ref.Snapshot(k).Digest(); got != want {
			t.Fatalf("SnapshotAt(%d) = %s, oracle says %s", i, got, want)
		}
	}
}

// TestSealedAccumulator: Seal keeps every reader working and makes the
// mutators that need the scan state panic. A sealed accumulator still
// merges into an open one.
func TestSealedAccumulator(t *testing.T) {
	db, keys := fuzzFixture(nil)
	b := &Builder{DB: db}
	n := db.Ratings.Len()
	acc := b.NewAccumulator(query.Description{}, keys)
	acc.Update(batch(0, n))
	want := accDigest(acc, keys)
	acc.Seal()
	if got := accDigest(acc, keys); got != want {
		t.Fatalf("sealing changed the rows\n got: %s\nwant: %s", got, want)
	}

	for name, op := range map[string]func(){
		"Update": func() { acc.Update(batch(0, 1)) },
		"Merge":  func() { acc.Merge(b.NewAccumulator(query.Description{}, keys)) },
		"Remove": func() { acc.Remove(keys[0]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a sealed accumulator did not panic", name)
				}
			}()
			op()
		}()
	}

	into := b.NewAccumulator(query.Description{}, keys)
	into.Merge(acc)
	if got := accDigest(into, keys); got != want {
		t.Fatalf("merging a sealed accumulator diverges\n got: %s\nwant: %s", got, want)
	}
}

// TestSnapshotVectorsExact: the vectors SnapshotsAt precomputes equal
// Distribution() and Signature() bit for bit, and a map built any other
// way computes them on demand.
func TestSnapshotVectorsExact(t *testing.T) {
	db, keys := fuzzFixture(nil)
	b := &Builder{DB: db}
	n := db.Ratings.Len()
	for _, recs := range [][]int32{batch(0, n), batch(0, 5), {}} {
		for _, rm := range b.Build(query.Description{}, recs, keys) {
			pooled, sig := rm.Vectors()
			if !sameBits(pooled, rm.Distribution()) || !sameBits(sig, rm.Signature()) {
				t.Fatalf("%v: precomputed vectors differ from Distribution/Signature", rm.Key)
			}
		}
	}
	lit := mapWithBars(5, []int{1, 0, 2, 0, 3}, []int{0, 4, 0, 0, 1})
	pooled, sig := lit.Vectors()
	if !sameBits(pooled, lit.Distribution()) || !sameBits(sig, lit.Signature()) {
		t.Fatal("fallback vectors differ from Distribution/Signature")
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
