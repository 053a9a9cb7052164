package ratingmap

import (
	"strings"
	"sync"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/query"
)

// fuzzDB is built once per fuzz process: a database large enough that
// byte-driven record selections exercise every grouping shape (atomic and
// multi-valued attributes, missing values, missing scores, two scales).
var fuzzDB = struct {
	once sync.Once
	db   *dataset.DB
	keys []Key
}{}

func fuzzFixture(tb testing.TB) (*dataset.DB, []Key) {
	fuzzDB.once.Do(func() {
		rs, _ := dataset.NewSchema(
			dataset.Attribute{Name: "gender"},
			dataset.Attribute{Name: "age"})
		is, _ := dataset.NewSchema(
			dataset.Attribute{Name: "city"},
			dataset.Attribute{Name: "tag", Kind: dataset.MultiValued})
		reviewers := dataset.NewEntityTable("reviewers", rs)
		items := dataset.NewEntityTable("items", is)
		genders := []string{"F", "M", "F", "", "M", "F"}
		ages := []string{"young", "old", "mid", "young", "", "old"}
		for i := 0; i < 6; i++ {
			reviewers.AppendRow("u", map[string]string{"gender": genders[i], "age": ages[i]}, nil)
		}
		cities := []string{"A", "B", "C", "", "A"}
		tags := [][]string{{"x", "y"}, {"x"}, nil, {"y", "z"}, {"z"}}
		for i := 0; i < 5; i++ {
			items.AppendRow("i", map[string]string{"city": cities[i]},
				map[string][]string{"tag": tags[i]})
		}
		rt, _ := dataset.NewRatingTable(
			dataset.Dimension{Name: "overall", Scale: 5},
			dataset.Dimension{Name: "value", Scale: 3})
		for n := 0; n < 64; n++ {
			// Deterministic spread incl. missing scores (0).
			rt.Append(n%6, (n*7)%5, []dataset.Score{
				dataset.Score(n % 6),       // 0..5 on scale 5
				dataset.Score((n * 3) % 4), // 0..3 on scale 3
			})
		}
		db := dataset.NewDB("fuzz", reviewers, items, rt)
		if err := db.Freeze(); err != nil {
			panic(err)
		}
		var keys []Key
		for dim := range rt.Dimensions {
			for _, a := range []struct {
				side query.Side
				attr string
			}{
				{query.ReviewerSide, "gender"},
				{query.ReviewerSide, "age"},
				{query.ItemSide, "city"},
				{query.ItemSide, "tag"},
			} {
				keys = append(keys, Key{Side: a.side, Attr: a.attr, Dim: dim})
			}
		}
		fuzzDB.db, fuzzDB.keys = db, keys
	})
	return fuzzDB.db, fuzzDB.keys
}

// accState is the read side shared by the Accumulator and the test
// oracle.
type accState interface {
	Snapshot(Key) *RatingMap
	NumRecords(Key) int
	RecordVisits() int
}

// accDigest fingerprints an accumulator's histograms: every candidate's
// snapshot digest, in key order.
func accDigest(acc accState, keys []Key) string {
	var b strings.Builder
	for _, k := range keys {
		if rm := acc.Snapshot(k); rm != nil {
			b.WriteString(rm.Digest())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// FuzzMerge checks the sharded-accumulation identity the engine's parallel
// scan relies on: splitting a record sequence into contiguous pieces,
// accumulating each piece privately, and merging the pieces in order must
// be indistinguishable from accumulating the concatenation in one pass —
// exact histogram counts, record totals, and visit counters — and both
// must match the map-based oracle. The record sequence and the number of
// pieces are both fuzzer-chosen; positions may repeat (Update has
// multiset semantics).
func FuzzMerge(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, uint8(2))
	f.Add([]byte{}, uint8(3))
	f.Add([]byte{63, 63, 63, 0}, uint8(1))
	f.Add([]byte{9, 18, 27, 36, 45, 54, 63}, uint8(7))
	f.Add([]byte{1}, uint8(255))
	db, keys := fuzzFixture(f)
	n := db.Ratings.Len()

	f.Fuzz(func(t *testing.T, raw []byte, pieces uint8) {
		records := make([]int32, len(raw))
		for i, b := range raw {
			records[i] = int32(int(b) % n)
		}
		np := int(pieces)%8 + 1

		b := &Builder{DB: db}
		want := b.NewAccumulator(query.Description{}, keys)
		want.Update(records)

		got := b.NewAccumulator(query.Description{}, keys)
		for w := 0; w < np; w++ {
			lo, hi := w*len(records)/np, (w+1)*len(records)/np
			sh := b.NewAccumulator(query.Description{}, keys)
			sh.Update(records[lo:hi])
			got.Merge(sh)
		}

		if g, w := accDigest(got, keys), accDigest(want, keys); g != w {
			t.Fatalf("merge of %d pieces diverges from one-pass accumulation\n got: %s\nwant: %s", np, g, w)
		}
		for _, k := range keys {
			if got.NumRecords(k) != want.NumRecords(k) {
				t.Fatalf("NumRecords(%v) %d vs %d", k, got.NumRecords(k), want.NumRecords(k))
			}
		}
		if got.RecordVisits() != want.RecordVisits() {
			t.Fatalf("RecordVisits %d vs %d", got.RecordVisits(), want.RecordVisits())
		}
		ref := newOracle(db, keys)
		ref.Update(records)
		assertAccEqual(t, want, ref, keys, "one-pass vs oracle")
		assertAccEqual(t, got, ref, keys, "merged vs oracle")
	})
}
