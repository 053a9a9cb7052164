package ratingmap

// The fused columnar scan kernel and the dense rows it accumulates into.
//
// Every candidate map owns one dense [NValues × (scale+1)] int32 counter
// block, its rows: cell v*(scale+1)+s counts the records of subgroup value
// v with score s. The rows are the accumulator's only per-candidate state:
// Accumulator.parts holds one partial per candidate by value, each just
// {scale, stride, rows}, aligned with Keys(); a candidate's key lives only
// in Keys(). Update increments the rows, and every reader walks them in
// ascending value-id order: SnapshotsAt, CriteriaEstimateAt, NewBaseSet,
// NumRecords, Merge (which adds blocks cell by cell), Remove (which drops
// a block) and the wire codec. All of a fresh accumulator's rows are
// carved from one zeroed slab.
//
// Each shared attribute scan lists its members by Keys() position; Remove
// rewires those positions. When Update starts a scan, it builds a small
// per-scan lane array on the stack — each member's rows plus the score
// column of its dimension, looked up by Key.Dim — and hands it to the
// kernel. Seal drops the scan state once the scan has completed, so a
// sealed accumulator (the form the engine's cross-step cache holds) keeps
// nothing but keys and rows; Update, Merge into it and Remove then panic.
//
// The scan reaches a record's value ids through flat columnar arrays:
//
//   - dataset.AttrColumn supplies per-attribute dictionary-coded value
//     columns (atomic: one id per entity row; multi-valued: CSR runs in one
//     shared backing array), so two array indexings reach a record's ids;
//   - the kernel is fused across dimensions, the paper's §4.2.1 "Combining
//     Multiple Aggregates" sharing at kernel level: each attribute's scan
//     resolves a record's value ids once and bumps the block of every
//     surviving dimension grouping by that attribute, so RecordVisits
//     counts one visit per (record, attribute);
//   - the inner loop is branch-free: a missing value (id 0) lands in row 0
//     and a missing score (score 0) in column 0 of its row. Readers skip
//     both, which is the GroupBy's drop of those records;
//   - the Atomic/MultiValued dispatch is hoisted out of the record loop.
//
// Exactness: the rows hold integer counts, so any split of a record
// sequence into Update batches, shards merged in any order, or frames
// decoded and merged at a coordinator, reach the same counts. The engine
// differential harness checks the kernel against a brute-force
// reference, and FuzzScanKernel and FuzzMerge check it against the
// map-based test oracle in oracle_test.go.
//
// Counter width: each (record, value) pair folded in bumps one cell of a
// block once, so a cell stays below the number of such pairs ever folded
// into the accumulator — far below 2^31 for any dataset this process can
// hold. DecodeWire rejects frames whose cells would not fit.

import "subdex/internal/dataset"

// lane is one candidate's view of a scan batch: its counter rows and the
// score column of its dimension, looked up when the batch starts.
type lane struct {
	rows   []int32
	scores []dataset.Score
	stride int
}

// maxStackLanes bounds the lanes a scan builds on the stack; an attribute
// shared by more rating dimensions than this (none of the generated
// datasets has one) builds them on the heap.
const maxStackLanes = 16

// Update feeds a batch of rating-record positions into every candidate map
// (multiset semantics: a repeated position counts again). It panics on a
// sealed accumulator.
func (a *Accumulator) Update(records []int32) {
	a.mustBeOpen("Update")
	var buf [maxStackLanes]lane
	for si := range a.scans {
		sc := &a.scans[si]
		if sc.col == nil || len(sc.members) == 0 {
			continue
		}
		lanes := buf[:0]
		if len(sc.members) > len(buf) {
			lanes = make([]lane, 0, len(sc.members))
		}
		for _, i := range sc.members {
			p := &a.parts[i]
			lanes = append(lanes, lane{rows: p.rows, scores: a.db.Ratings.Scores[a.order[i].Dim], stride: p.stride})
		}
		a.recordVisits += len(records)
		if sc.col.Kind == dataset.Atomic {
			scanAtomic(lanes, sc.col.Values, sc.rowOf, records)
		} else {
			scanMulti(lanes, sc.col.Values, sc.col.Offsets, sc.rowOf, records)
		}
	}
}

// scanAtomic accumulates an atomic attribute: per record, one value-id
// resolution, then one counter increment per dimension.
func scanAtomic(lanes []lane, vals []dataset.ValueID, rowOf []int32, records []int32) {
	for _, r := range records {
		v := int(vals[rowOf[r]])
		for j := range lanes {
			l := &lanes[j]
			l.rows[v*l.stride+int(l.scores[r])]++
		}
	}
}

// scanMulti accumulates a multi-valued attribute over its CSR runs: per
// record, the run is resolved once, then walked once per dimension.
func scanMulti(lanes []lane, vals []dataset.ValueID, offs []int32, rowOf []int32, records []int32) {
	for _, r := range records {
		row := rowOf[r]
		run := vals[offs[row]:offs[row+1]]
		for j := range lanes {
			l := &lanes[j]
			base := int(l.scores[r])
			for _, v := range run {
				l.rows[int(v)*l.stride+base]++
			}
		}
	}
}
