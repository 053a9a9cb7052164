package ratingmap

// The fused columnar scan kernel and the dense rows it accumulates into.
//
// Every candidate map owns one dense [NValues × (scale+1)] int32 counter
// block, its rows: cell v*(scale+1)+s counts the records of subgroup value
// v with score s. The rows are the accumulator's only per-candidate state.
// Update increments them, and every reader walks them in ascending
// value-id order: Snapshot, CriteriaEstimateOpt, NumRecords, Merge (which
// adds blocks cell by cell), Remove (which drops a block) and the wire
// codec. All of a fresh accumulator's rows are carved from one zeroed
// slab.
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

// Update feeds a batch of rating-record positions into every candidate map
// (multiset semantics: a repeated position counts again).
func (a *Accumulator) Update(records []int32) {
	for si := range a.scans {
		sc := &a.scans[si]
		if sc.col == nil || len(sc.parts) == 0 {
			continue
		}
		a.recordVisits += len(records)
		if sc.col.Kind == dataset.Atomic {
			scanAtomic(sc.parts, sc.col.Values, sc.rowOf, records)
		} else {
			scanMulti(sc.parts, sc.col.Values, sc.col.Offsets, sc.rowOf, records)
		}
	}
}

// scanAtomic accumulates an atomic attribute: per record, one value-id
// resolution, then one counter increment per dimension.
func scanAtomic(parts []*partial, vals []dataset.ValueID, rowOf []int32, records []int32) {
	for _, r := range records {
		v := int(vals[rowOf[r]])
		for _, p := range parts {
			p.rows[v*p.stride+int(p.scores[r])]++
		}
	}
}

// scanMulti accumulates a multi-valued attribute over its CSR runs: per
// record, the run is resolved once, then walked once per dimension.
func scanMulti(parts []*partial, vals []dataset.ValueID, offs []int32, rowOf []int32, records []int32) {
	for _, r := range records {
		row := rowOf[r]
		run := vals[offs[row]:offs[row+1]]
		for _, p := range parts {
			base := int(p.scores[r])
			for _, v := range run {
				p.rows[int(v)*p.stride+base]++
			}
		}
	}
}
