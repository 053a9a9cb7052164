package ratingmap

import (
	"fmt"
	"sort"
	"strings"

	"subdex/internal/query"
)

// This file implements deterministic accumulator merging, the substrate of
// the engine's sharded parallel scan: each worker accumulates a private
// shard of the record range (no locks on the per-record hot loop), then the
// shards are merged into the target accumulator *in shard order*. All
// accumulator state is integer counter rows, so merging is plain addition
// — the merged state is bit-for-bit identical to a sequential scan of the
// concatenated ranges, independent of thread scheduling. The
// differential harness in internal/engine and FuzzMerge below this package
// prove that equivalence on randomized inputs.

// Desc returns the group description the accumulator was created for, so
// the engine can spawn shard accumulators structurally identical to the
// target without re-threading the description.
func (a *Accumulator) Desc() query.Description { return a.desc }

// Merge folds other's partial state into a. Candidates are matched by key:
// the counter blocks of shared candidates are added cell by cell;
// candidates present only in other are deep-copied into a (registered at
// the end of a's key order, preserving other's order). Both accumulators
// must observe the same database — merging shards of one group's record
// range is the intended use. Merge is exact: all state is integer counts,
// so
//
//	Merge(accumulate(r[:i]), accumulate(r[i:])) == accumulate(r)
//
// for every split point i, bit for bit. Merge panics when a is sealed;
// other may be sealed.
func (a *Accumulator) Merge(other *Accumulator) {
	a.mustBeOpen("Merge")
	for j, k := range other.order {
		op := &other.parts[j]
		if i := a.index(k); i >= 0 {
			rows := a.parts[i].rows
			for c, n := range op.rows {
				rows[c] += n
			}
			continue
		}
		cp := *op
		cp.rows = append([]int32(nil), op.rows...)
		a.register(k, cp)
	}
	a.recordVisits += other.recordVisits
}

// register appends a candidate with its own rows to the key order and to
// its attribute's shared scan, creating the scan on first use. Merge and
// DecodeWire use it; NewAccumulator registers in bulk.
func (a *Accumulator) register(k Key, p partial) {
	si := a.scanIndex(k.Side, k.Attr)
	if si == len(a.scans) {
		a.scans = append(a.scans, resolveScan(a.db, k.Side, k.Attr))
	}
	a.scans[si].members = append(a.scans[si].members, len(a.order))
	a.order = append(a.order, k)
	a.parts = append(a.parts, p)
}

// index returns the position of a candidate key in Keys(), or -1.
func (a *Accumulator) index(k Key) int {
	for i, o := range a.order {
		if o == k {
			return i
		}
	}
	return -1
}

// NumRecords reports how many scored records the candidate has accumulated
// (0 for unknown candidates). Exposed for the differential test harness and
// the bench's exactness checks.
func (a *Accumulator) NumRecords(k Key) int {
	i := a.index(k)
	if i < 0 {
		return 0
	}
	_, n := a.parts[i].census()
	return n
}

// Digest renders a canonical, byte-stable fingerprint of a rating map:
// the key, the total record count, and every subgroup's value id and full
// histogram, in subgroup-value order (independent of the display sort).
// Two rating maps digest equally iff their accumulated counts are
// identical — the "byte-identical rating maps" check of the differential
// harness and of cmd/sdebench's BENCH_engine.json exactness field.
func (rm *RatingMap) Digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d.%s.dim%d|n=%d|", rm.Side, rm.Attr, rm.Dim, rm.TotalRecords)
	sgs := append([]Subgroup(nil), rm.Subgroups...)
	sort.Slice(sgs, func(i, j int) bool { return sgs[i].Value < sgs[j].Value })
	for _, sg := range sgs {
		fmt.Fprintf(&b, "%d:%v;", sg.Value, sg.Counts)
	}
	return b.String()
}

// DigestMaps digests a whole result set in order, newline-separated.
func DigestMaps(maps []*RatingMap) string {
	var b strings.Builder
	for _, rm := range maps {
		b.WriteString(rm.Digest())
		b.WriteByte('\n')
	}
	return b.String()
}
