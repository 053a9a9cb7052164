package ratingmap

import (
	"testing"

	"subdex/internal/query"
)

// TestCriteriaEstimateOptAllocsZero: estimating a built accumulator's
// candidates under the default measure reads the dense rows with stack
// scratch only — zero heap allocations, with and without history.
func TestCriteriaEstimateOptAllocsZero(t *testing.T) {
	db, keys := fuzzFixture(nil)
	b := &Builder{DB: db}
	acc := b.NewAccumulator(query.Description{}, keys)
	acc.Update(batch(0, db.Ratings.Len()))

	seen := NewSeenSet()
	for _, rm := range b.Build(query.Description{}, batch(0, db.Ratings.Len()/2), keys[:3]) {
		seen.Add(rm)
	}
	for _, s := range []*SeenSet{nil, seen} {
		for _, k := range keys {
			var ok bool
			n := testing.AllocsPerRun(50, func() {
				_, ok = acc.CriteriaEstimateOpt(k, s, 1.5, PecTVD)
			})
			if !ok {
				t.Fatalf("%v: candidate not found", k)
			}
			if n != 0 {
				t.Fatalf("%v: CriteriaEstimateOpt allocates %v times under PecTVD, want 0", k, n)
			}
		}
	}
}
