package ratingmap

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/query"
)

// wireAcc accumulates the given record positions over the fuzz fixture
// database for a key subset.
func wireAcc(db *dataset.DB, keys []Key, records []int32) *Accumulator {
	b := Builder{DB: db}
	acc := b.NewAccumulator(query.Description{}, keys)
	acc.Update(records)
	return acc
}

// wireRecordSets enumerates record selections covering the edges the
// codec has to preserve: empty, single-record, dense, strided, and
// repeated-visit states.
func wireRecordSets(n int32) [][]int32 {
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	evens := make([]int32, 0, n/2)
	for i := int32(0); i < n; i += 2 {
		evens = append(evens, i)
	}
	return [][]int32{
		nil,
		{0},
		{n - 1},
		all,
		evens,
		append(append([]int32{}, all...), all...), // every record folded twice
	}
}

// TestWireRoundTrip: decode(encode(acc)) must reproduce the complete
// mergeable state — every candidate's snapshot digest, per-key record
// counts, key registration order, and the shared-scan visit counter.
func TestWireRoundTrip(t *testing.T) {
	db, keys := fuzzFixture(t)
	b := Builder{DB: db}
	for ki, keySet := range [][]Key{keys, keys[:1], keys[3:5], nil} {
		for ri, records := range wireRecordSets(64) {
			acc := wireAcc(db, keySet, records)
			frame := acc.EncodeWire()
			got, err := b.DecodeWire(query.Description{}, frame)
			if err != nil {
				t.Fatalf("keys[%d] records[%d]: DecodeWire: %v", ki, ri, err)
			}
			if len(got.Keys()) != len(acc.Keys()) {
				t.Fatalf("keys[%d] records[%d]: key count %d, want %d", ki, ri, len(got.Keys()), len(acc.Keys()))
			}
			for i, k := range acc.Keys() {
				if got.Keys()[i] != k {
					t.Fatalf("keys[%d] records[%d]: key order diverged at %d: %v vs %v", ki, ri, i, got.Keys()[i], k)
				}
				if g, w := got.NumRecords(k), acc.NumRecords(k); g != w {
					t.Fatalf("keys[%d] records[%d]: NumRecords(%v) = %d, want %d", ki, ri, k, g, w)
				}
			}
			if g, w := got.RecordVisits(), acc.RecordVisits(); g != w {
				t.Fatalf("keys[%d] records[%d]: RecordVisits = %d, want %d", ki, ri, g, w)
			}
			if g, w := accDigest(got, got.Keys()), accDigest(acc, acc.Keys()); g != w {
				t.Fatalf("keys[%d] records[%d]: digest diverged\n got: %q\nwant: %q", ki, ri, g, w)
			}
			// Encode is canonical: re-encoding the decoded state must
			// reproduce the frame byte for byte.
			if !bytes.Equal(got.EncodeWire(), frame) {
				t.Fatalf("keys[%d] records[%d]: re-encode is not byte-identical", ki, ri)
			}
		}
	}
}

// TestWireMergeEquivalence simulates the coordinator: partials scanned
// over contiguous record ranges, shipped through the codec, and merged
// in partition order must equal one local scan of the concatenation.
func TestWireMergeEquivalence(t *testing.T) {
	db, keys := fuzzFixture(t)
	b := Builder{DB: db}
	all := make([]int32, 64)
	for i := range all {
		all[i] = int32(i)
	}
	want := wireAcc(db, keys, all)
	for _, parts := range []int{1, 2, 3, 5, 64, 200} {
		master := b.NewAccumulator(query.Description{}, keys)
		for p := 0; p < parts; p++ {
			lo, hi := p*len(all)/parts, (p+1)*len(all)/parts
			if lo >= hi {
				continue
			}
			frame := wireAcc(db, keys, all[lo:hi]).EncodeWire()
			dec, err := b.DecodeWire(query.Description{}, frame)
			if err != nil {
				t.Fatalf("parts=%d p=%d: DecodeWire: %v", parts, p, err)
			}
			master.Merge(dec)
		}
		if g, w := accDigest(master, master.Keys()), accDigest(want, want.Keys()); g != w {
			t.Fatalf("parts=%d: merged digest diverged from sequential scan", parts)
		}
		if g, w := master.RecordVisits(), want.RecordVisits(); g != w {
			t.Fatalf("parts=%d: RecordVisits = %d, want %d", parts, g, w)
		}
	}
}

// TestWireRejectsCorrupt flips and truncates a valid frame every way a
// network or a buggy peer could: each must fail cleanly, never panic.
func TestWireRejectsCorrupt(t *testing.T) {
	db, keys := fuzzFixture(t)
	b := Builder{DB: db}
	all := make([]int32, 64)
	for i := range all {
		all[i] = int32(i)
	}
	frame := wireAcc(db, keys, all).EncodeWire()
	if _, err := b.DecodeWire(query.Description{}, frame); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, err := b.DecodeWire(query.Description{}, frame[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	for i := range frame {
		mut := append([]byte{}, frame...)
		mut[i] ^= 0x01
		if _, err := b.DecodeWire(query.Description{}, mut); err == nil {
			t.Fatalf("single-byte flip at offset %d accepted", i)
		}
	}
	for i := range frame {
		if _, err := b.DecodeWire(query.Description{}, frame[i:]); err == nil && i != 0 {
			t.Fatalf("frame with %d leading bytes dropped accepted", i)
		}
	}
	if _, err := b.DecodeWire(query.Description{}, append(append([]byte{}, frame...), 0)); err == nil {
		t.Fatal("frame with trailing garbage accepted")
	}
}

// TestWireSchemaGuard: a frame encoded against a database with a
// different rating scale must be rejected by the schema cross-check even
// though its checksum is intact.
func TestWireSchemaGuard(t *testing.T) {
	db, keys := fuzzFixture(t)
	b := Builder{DB: db}
	rs, _ := dataset.NewSchema(dataset.Attribute{Name: "gender"})
	is, _ := dataset.NewSchema(dataset.Attribute{Name: "city"})
	reviewers := dataset.NewEntityTable("reviewers", rs)
	items := dataset.NewEntityTable("items", is)
	reviewers.AppendRow("u", map[string]string{"gender": "F"}, nil)
	items.AppendRow("i", map[string]string{"city": "A"}, nil)
	rt, _ := dataset.NewRatingTable(dataset.Dimension{Name: "overall", Scale: 4})
	rt.Append(0, 0, []dataset.Score{2})
	other := dataset.NewDB("other", reviewers, items, rt)
	if err := other.Freeze(); err != nil {
		t.Fatal(err)
	}
	ob := Builder{DB: other}
	foreign := ob.NewAccumulator(query.Description{},
		[]Key{{Side: query.ReviewerSide, Attr: "gender", Dim: 0}})
	foreign.Update([]int32{0})
	if _, err := b.DecodeWire(query.Description{}, foreign.EncodeWire()); err == nil {
		t.Fatal("frame with scale-4 histograms accepted against a scale-5 schema")
	}
	// Dimension index outside the schema, same mechanics.
	narrow := dataset.NewDB("narrow", reviewers, items, rt)
	if err := narrow.Freeze(); err != nil {
		t.Fatal(err)
	}
	_ = keys
	nb := Builder{DB: narrow}
	wide := wireAcc(db, []Key{{Side: query.ReviewerSide, Attr: "gender", Dim: 1}}, []int32{0, 1, 2})
	if _, err := nb.DecodeWire(query.Description{}, wide.EncodeWire()); err == nil {
		t.Fatal("dimension-1 frame accepted against a one-dimension schema")
	}
}

// FuzzPartialCodec drives DecodeWire with arbitrary bytes: any input
// must either be rejected with an error or decode to a state whose
// re-encoding is a canonical fixed point (encode(decode(x)) decodes to
// the same digests and re-encodes to identical bytes). The checked-in
// corpus under testdata/fuzz/FuzzPartialCodec seeds valid frames plus
// truncated/corrupt variants.
func FuzzPartialCodec(f *testing.F) {
	db, keys := fuzzFixture(f)
	b := Builder{DB: db}
	all := make([]int32, 64)
	for i := range all {
		all[i] = int32(i)
	}
	for _, records := range wireRecordSets(64) {
		f.Add(wireAcc(db, keys, records).EncodeWire())
	}
	valid := wireAcc(db, keys[:3], all).EncodeWire()
	f.Add(valid[:len(valid)/2])                        // truncated
	f.Add(append(append([]byte{}, valid...), 1, 2, 3)) // trailing garbage
	mut := append([]byte{}, valid...)
	mut[len(mut)-1] ^= 0xFF // checksum corruption
	f.Add(mut)
	f.Add([]byte("SDXA"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, frame []byte) {
		acc, err := b.DecodeWire(query.Description{}, frame)
		if err != nil {
			return // rejected without panic: the contract for garbage
		}
		canon := acc.EncodeWire()
		again, err := b.DecodeWire(query.Description{}, canon)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if g, w := accDigest(again, again.Keys()), accDigest(acc, acc.Keys()); g != w {
			t.Fatalf("digest changed across re-encode\n got: %q\nwant: %q", g, w)
		}
		if again.RecordVisits() != acc.RecordVisits() {
			t.Fatalf("RecordVisits changed across re-encode: %d vs %d", again.RecordVisits(), acc.RecordVisits())
		}
		if !bytes.Equal(again.EncodeWire(), canon) {
			t.Fatal("encode is not a fixed point after one canonicalization")
		}
	})
}

// BenchmarkWireCodec sizes the round trip the cluster pays per partition
// response.
func BenchmarkWireCodec(bm *testing.B) {
	db, keys := fuzzFixture(bm)
	b := Builder{DB: db}
	all := make([]int32, 64)
	for i := range all {
		all[i] = int32(i)
	}
	frame := wireAcc(db, keys, all).EncodeWire()
	bm.ReportMetric(float64(len(frame)), "frame-bytes")
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		acc, err := b.DecodeWire(query.Description{}, frame)
		if err != nil {
			bm.Fatal(err)
		}
		if got := acc.EncodeWire(); len(got) != len(frame) {
			bm.Fatal(fmt.Sprintf("re-encode length %d, want %d", len(got), len(frame)))
		}
	}
}

// TestWireFramesPinned pins version-1 frame bytes: the frames of the
// fixture's record sets (by length and SHA-256) and one short frame in
// full. Any change to these bytes is a wire-format change and needs a
// WireVersion bump.
func TestWireFramesPinned(t *testing.T) {
	db, keys := fuzzFixture(t)
	want := []struct {
		n   int
		sum string
	}{
		{95, "486ca0236443fff379142e9a542ada9d2ad46eec55ac2962ce6d4dfd0c202cfe"},
		{95, "0ae5b71aac9df1cd227d03a5f4de250b64f821f0dbeeb85a4ee9ca0397e1ac9d"},
		{125, "40645c6cddeec3569736322704c93d23485e47d3f5e471baba353ef2369cc0d9"},
		{206, "3bbe4a69a8d75e59ca6c6454edc47b6f656b419818b41f9e07c1bd11a6cf54c8"},
		{190, "1b12c5da81dc52e03442c90ec000717dc20fa9781992bd8b2e25be472f17fd0a"},
		{206, "c054c27ad21452fa672bf2b46d9715f086f1be71d8c86f5cdb9599c1d913b9e0"},
	}
	for i, records := range wireRecordSets(64) {
		f := wireAcc(db, keys, records).EncodeWire()
		if sum := fmt.Sprintf("%x", sha256.Sum256(f)); len(f) != want[i].n || sum != want[i].sum {
			t.Errorf("record set %d: frame of %d bytes, sha256 %s; want %d bytes, %s", i, len(f), sum, want[i].n, want[i].sum)
		}
	}
	const short = "5344584101180401046369747900050302010000000002020000010000010374616700050803010000010001020000020001030000020001000667656e646572010302010100000200036167650103050201010002020000024f87b8308a42a458"
	if got := hex.EncodeToString(wireAcc(db, keys[2:6], []int32{5, 9, 9, 63, 0, 17}).EncodeWire()); got != short {
		t.Errorf("short frame\n got: %s\nwant: %s", got, short)
	}
}
