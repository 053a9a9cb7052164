// Package ratingmap implements rating distributions and rating maps
// (Definitions 1-2 of the paper), their interestingness criteria —
// conciseness, agreement, self peculiarity, global peculiarity (§3.2.3,
// §4.1) — and the dimension-weighted utility of Equation 1.
//
// A rating map is the result of a GroupBy over a rating group g_R on a
// single reviewer or item attribute, aggregated on one rating dimension:
// each subgroup carries its rating distribution and average score.
package ratingmap

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"subdex/internal/dataset"
	"subdex/internal/query"
	"subdex/internal/stats"
)

// Key identifies a candidate rating map: the grouping attribute (on one
// side) and the rating dimension aggregated.
type Key struct {
	Side query.Side
	Attr string
	Dim  int // index into the rating table's dimensions
}

// String renders the key as e.g. "GROUPBY items.city AGG food".
func (k Key) String() string {
	return fmt.Sprintf("GROUPBY %s.%s AGG dim%d", k.Side, k.Attr, k.Dim)
}

// Subgroup is one bar of the rating map: the records of g_R whose grouping
// attribute has the given value, with their score histogram.
type Subgroup struct {
	Value dataset.ValueID
	// Counts[s-1] is the number of records with score s; length = scale m.
	Counts []int
	N      int
}

// Distribution returns the subgroup's rating distribution.
func (sg *Subgroup) Distribution() stats.Distribution {
	return stats.NewDistributionFromCounts(sg.Counts)
}

// AvgScore returns the subgroup's aggregated (average) score, the single
// number the paper's rating maps attach to each subgroup. Records with a
// missing score are excluded by construction.
func (sg *Subgroup) AvgScore() float64 {
	if sg.N == 0 {
		return 0
	}
	sum := 0
	for i, c := range sg.Counts {
		sum += (i + 1) * c
	}
	return float64(sum) / float64(sg.N)
}

// StdDev returns the standard deviation of scores within the subgroup,
// feeding the agreement criterion.
func (sg *Subgroup) StdDev() float64 {
	return sg.Distribution().StdDev()
}

// ModeScore returns the subgroup's most frequent rating value — the
// "highest probability for the rating dimension" aggregation Definition 2
// names as an alternative to the average. Ties break toward the lower
// rating; an empty subgroup returns 0.
func (sg *Subgroup) ModeScore() int {
	best, bestCount := 0, 0
	for i, c := range sg.Counts {
		if c > bestCount {
			best, bestCount = i+1, c
		}
	}
	return best
}

// RatingMap is a materialized rating map rm(g_R, r_i).
type RatingMap struct {
	Key
	DimName string
	Scale   int
	// Desc is the description of the underlying rating group.
	Desc query.Description
	// Subgroups are sorted by descending average score, as displayed in the
	// paper's Figure 3 tables.
	Subgroups []Subgroup
	// TotalRecords is |g_R| counted with multiplicity for multi-valued
	// grouping attributes (a record in two cuisines appears in two bars).
	TotalRecords int

	total []int // pooled histogram across subgroups
	// pooled and sig are Distribution() and Signature(), precomputed by
	// SnapshotsAt (nil on maps built any other way); see Vectors.
	pooled, sig stats.Distribution
}

// Dict resolves subgroup values to display strings; set by the builder.
type Dict interface {
	Value(dataset.ValueID) string
}

// Distribution returns the rating distribution of the whole map (pooled
// across subgroups), the reference distribution for self peculiarity and the
// object compared by global peculiarity and EMD-based diversity.
func (rm *RatingMap) Distribution() stats.Distribution {
	return stats.NewDistributionFromCounts(rm.total)
}

// Vectors returns the map's pooled distribution and signature, the two
// views the diversity distance compares. Maps built by SnapshotsAt carry
// both precomputed and return them without allocating; the vectors are
// then shared and must not be modified. Maps built any other way compute
// them afresh, equal bit for bit to Distribution() and Signature().
func (rm *RatingMap) Vectors() (pooled, sig stats.Distribution) {
	if rm.pooled != nil {
		return rm.pooled, rm.sig
	}
	return rm.Distribution(), rm.Signature()
}

// NumSubgroups returns the number of bars.
func (rm *RatingMap) NumSubgroups() int { return len(rm.Subgroups) }

// Signature returns the distribution of subgroup average scores, weighted
// by subgroup size, with fractional averages split linearly between the
// neighbouring scale bins. Unlike the pooled Distribution — which is
// identical for every grouping of the same records on the same dimension —
// the signature reflects the grouping structure itself, so it can tell
// "GroupBy neighborhood" apart from "GroupBy parking" even on one
// dimension. The diversity distance combines both.
func (rm *RatingMap) Signature() stats.Distribution {
	sig := make(stats.Distribution, rm.Scale)
	rm.signatureInto(sig)
	return sig
}

// signatureInto writes the signature into sig, which must be zeroed and
// rm.Scale long.
func (rm *RatingMap) signatureInto(sig stats.Distribution) {
	total := 0.0
	for i := range rm.Subgroups {
		sg := &rm.Subgroups[i]
		if sg.N == 0 {
			continue
		}
		avg := sg.AvgScore() // in [1, scale]
		pos := avg - 1       // in [0, scale-1]
		lo := int(pos)
		frac := pos - float64(lo)
		w := float64(sg.N)
		if lo >= rm.Scale-1 {
			sig[rm.Scale-1] += w
		} else {
			sig[lo] += w * (1 - frac)
			sig[lo+1] += w * frac
		}
		total += w
	}
	if total == 0 {
		sig.Normalize()
		return
	}
	for i := range sig {
		sig[i] /= total
	}
}

// Render formats the map as the tabular view of Figure 3.
func (rm *RatingMap) Render(dict Dict) string {
	var b strings.Builder
	fmt.Fprintf(&b, "GroupBy %s.%s, aggregated by %s score\n", rm.Side, rm.Attr, rm.DimName)
	fmt.Fprintf(&b, "%-20s %12s %-28s %10s\n", rm.Attr, "# of records", "rating distribution", "avg. score")
	for _, sg := range rm.Subgroups {
		label := fmt.Sprintf("%d", sg.Value)
		if dict != nil {
			label = dict.Value(sg.Value)
		}
		var dist strings.Builder
		dist.WriteByte('{')
		for s, c := range sg.Counts {
			if s > 0 {
				dist.WriteByte(',')
			}
			fmt.Fprintf(&dist, "%d:%d", s+1, c)
		}
		dist.WriteByte('}')
		fmt.Fprintf(&b, "%-20s %12d %-28s %10.1f\n", label, sg.N, dist.String(), sg.AvgScore())
	}
	return b.String()
}

// Builder materializes rating maps over a database. It implements the
// "Combining Multiple Aggregates" sharing optimization of §4.2.1: one scan
// of a record range updates the partial results of every candidate map that
// groups by the same attribute, across all rating dimensions.
type Builder struct {
	DB *dataset.DB
}

// partial is one candidate map's accumulation state, held by value in
// Accumulator.parts: its dense counter rows (see kernel.go) and their
// shape. The candidate's key lives only in Accumulator.order.
type partial struct {
	scale  int
	stride int // scale+1: the row width, including the missing-score column 0
	// rows is the [NValues × stride] counter block of the candidate's
	// grouping attribute: cell v*stride+s counts records of subgroup value
	// v with score s. Row 0 (missing value) and column 0 (missing score)
	// absorb the records the paper's GroupBy drops; every reader skips
	// them. Empty when the attribute does not resolve to a column.
	rows []int32
}

// attrScan is one grouping attribute's shared scan: its value column and
// record-to-entity-row index, and the Keys() positions of every candidate
// still grouping by it (one per rating dimension).
type attrScan struct {
	side    query.Side
	attr    string
	col     *dataset.AttrColumn // nil when the attribute is unknown
	rowOf   []int32
	members []int
}

// Accumulator holds the in-progress subgroup histograms of a set of
// candidate maps sharing scans. The engine's phase loop calls Update once
// per phase with the next record fraction. Its only per-candidate state
// is each candidate's dense counter rows; the shared scans exist until
// Seal.
type Accumulator struct {
	db   *dataset.DB
	desc query.Description
	// order and parts are aligned: parts[i] accumulates candidate order[i].
	order []Key
	parts []partial
	// scans is the shared-scan state Update, Merge and Remove need; Seal
	// drops it (nil afterwards) once the scan has completed.
	scans  []attrScan
	sealed bool

	// recordVisits counts per-record attribute lookups — the cost the
	// "Combining Multiple Aggregates" sharing optimization bounds: one
	// visit per (record, attribute), independent of how many rating
	// dimensions share the attribute.
	recordVisits int
}

// NewAccumulator prepares shared accumulation for the given candidate keys
// over the rating group described by desc. The database must be frozen:
// the scan reads its columnar projections. Each candidate's attribute is
// resolved to its column once here, and every candidate's counter rows
// are carved from one zeroed slab.
func (b *Builder) NewAccumulator(desc query.Description, keys []Key) *Accumulator {
	if !b.DB.Frozen() {
		panic("ratingmap: NewAccumulator needs a frozen database")
	}
	acc := &Accumulator{
		db:    b.DB,
		desc:  desc,
		order: append([]Key(nil), keys...),
		parts: make([]partial, len(keys)),
	}
	scanOf := make([]int, len(keys))
	nMembers := make([]int, 0, 8)
	cells := 0
	for i, k := range keys {
		si := acc.scanIndex(k.Side, k.Attr)
		if si == len(acc.scans) {
			acc.scans = append(acc.scans, resolveScan(b.DB, k.Side, k.Attr))
			nMembers = append(nMembers, 0)
		}
		scanOf[i] = si
		nMembers[si]++
		p := &acc.parts[i]
		p.scale = b.DB.Ratings.Dimensions[k.Dim].Scale
		p.stride = p.scale + 1
		if col := acc.scans[si].col; col != nil {
			cells += col.NValues * p.stride
		}
	}
	// Carve each scan's member list and each partial's rows from shared
	// backing arrays. Capacity-limited sub-slices keep a later append
	// (Merge registering a new candidate) from overwriting a neighbour.
	members := make([]int, len(keys))
	off := 0
	for si := range acc.scans {
		acc.scans[si].members = members[off : off : off+nMembers[si]]
		off += nMembers[si]
	}
	slab := make([]int32, cells)
	for i := range acc.parts {
		p := &acc.parts[i]
		sc := &acc.scans[scanOf[i]]
		sc.members = append(sc.members, i)
		if sc.col != nil {
			n := sc.col.NValues * p.stride
			p.rows = slab[:n:n]
			slab = slab[n:]
		}
	}
	return acc
}

// resolveScan looks up a grouping attribute's column. An unknown
// attribute gets a nil column: its candidates accumulate nothing.
func resolveScan(db *dataset.DB, side query.Side, attr string) attrScan {
	t, rowOf := db.Reviewers, db.Ratings.Reviewer
	if side != query.ReviewerSide {
		t, rowOf = db.Items, db.Ratings.Item
	}
	return attrScan{side: side, attr: attr, col: t.Column(t.Schema.Index(attr)), rowOf: rowOf}
}

// scanIndex returns the index of the shared scan of (side, attr), or
// len(a.scans) when no candidate registered it yet. Candidate lists put
// an attribute's dimensions next to each other, so the last scan is
// checked first.
func (a *Accumulator) scanIndex(side query.Side, attr string) int {
	n := len(a.scans)
	if n > 0 && a.scans[n-1].side == side && a.scans[n-1].attr == attr {
		return n - 1
	}
	for si := range a.scans {
		if a.scans[si].side == side && a.scans[si].attr == attr {
			return si
		}
	}
	return n
}

// Keys returns the candidate keys in registration order. Position i of
// the returned slice is the candidate the *At accessors address.
func (a *Accumulator) Keys() []Key { return a.order }

// RecordVisits reports how many (record, attribute) lookups the shared
// scans performed so far — the work the sharing optimization bounds.
func (a *Accumulator) RecordVisits() int { return a.recordVisits }

// Seal marks the scan complete and drops the shared-scan state, leaving
// only the keys and counter rows the readers need. Update, Merge (into a
// sealed accumulator) and Remove panic afterwards; every reader, and
// merging a sealed accumulator into an open one, keeps working. The
// engine seals an accumulator before the cross-step cache admits it.
func (a *Accumulator) Seal() {
	a.scans = nil
	a.sealed = true
}

// mustBeOpen panics when a mutator that needs the shared-scan state runs
// on a sealed accumulator.
func (a *Accumulator) mustBeOpen(op string) {
	if a.sealed {
		panic("ratingmap: " + op + " on a sealed accumulator")
	}
}

// Remove drops a candidate from accumulation, the effect of pruning: later
// phases no longer pay for its counter updates. The candidates after it
// move up one Keys() position, and every scan's member list is rewired to
// match. An attribute whose last candidate is removed is no longer
// scanned.
func (a *Accumulator) Remove(k Key) {
	a.mustBeOpen("Remove")
	i := a.index(k)
	if i < 0 {
		return
	}
	a.order = slices.Delete(a.order, i, i+1)
	a.parts = slices.Delete(a.parts, i, i+1)
	for si := range a.scans {
		sc := &a.scans[si]
		kept := sc.members[:0]
		for _, j := range sc.members {
			switch {
			case j < i:
				kept = append(kept, j)
			case j > i:
				kept = append(kept, j-1)
			}
		}
		sc.members = kept
	}
}

// Snapshot materializes the current partial state of one candidate as a
// RatingMap (nil for unknown candidates). The engine uses snapshots both
// for per-phase utility estimates and for the final exact maps after the
// last phase.
func (a *Accumulator) Snapshot(k Key) *RatingMap {
	i := a.index(k)
	if i < 0 {
		return nil
	}
	return a.SnapshotAt(i)
}

// SnapshotAt is Snapshot of the candidate at position i of Keys().
func (a *Accumulator) SnapshotAt(i int) *RatingMap {
	return a.SnapshotsAt([]int{i})[0]
}

// SnapshotsAt materializes the candidates at the given Keys() positions,
// in that order. Rows are read in ascending value-id order. Each map's
// pooled distribution and signature are computed once here (see
// RatingMap.Vectors). The maps, their histograms, subgroups and vectors
// are carved from five backing arrays, however many maps are built.
func (a *Accumulator) SnapshotsAt(pos []int) []*RatingMap {
	nInts, nSubs, nFloats := 0, 0, 0
	for _, i := range pos {
		p := &a.parts[i]
		nsub, _ := p.census()
		nInts += (1 + nsub) * p.scale
		nSubs += nsub
		nFloats += 2 * p.scale
	}
	maps := make([]RatingMap, len(pos))
	out := make([]*RatingMap, len(pos))
	ints := make([]int, nInts)
	subs := make([]Subgroup, nSubs)
	floats := make([]float64, nFloats)
	for j, i := range pos {
		p := &a.parts[i]
		k := a.order[i]
		rm := &maps[j]
		out[j] = rm
		rm.Key = k
		rm.DimName = a.db.Ratings.Dimensions[k.Dim].Name
		rm.Scale = p.scale
		rm.Desc = a.desc
		rm.total, ints = ints[:p.scale:p.scale], ints[p.scale:]
		nsub, _ := p.census()
		if nsub > 0 {
			rm.Subgroups, subs = subs[:0:nsub], subs[nsub:]
		}
		for v, nv := 1, p.nValues(); v < nv; v++ {
			row := p.row(v)
			n := 0
			for _, c := range row {
				n += int(c)
			}
			if n == 0 {
				continue
			}
			var c []int
			c, ints = ints[:p.scale:p.scale], ints[p.scale:]
			for s, x := range row {
				c[s] = int(x)
				rm.total[s] += int(x)
			}
			rm.TotalRecords += n
			rm.Subgroups = append(rm.Subgroups, Subgroup{Value: dataset.ValueID(v), Counts: c, N: n})
		}
		slices.SortFunc(rm.Subgroups, func(x, y Subgroup) int {
			ax, ay := x.AvgScore(), y.AvgScore()
			switch {
			case ax > ay:
				return -1
			case ax < ay:
				return 1
			}
			return cmp.Compare(x.Value, y.Value)
		})
		rm.pooled, floats = floats[:p.scale:p.scale], floats[p.scale:]
		rm.sig, floats = floats[:p.scale:p.scale], floats[p.scale:]
		stats.FillFromCounts(rm.pooled, rm.total)
		rm.signatureInto(rm.sig)
	}
	return out
}

// nValues is the number of rows of the candidate's block (the dictionary
// size of its attribute, including the missing-value row 0).
func (p *partial) nValues() int { return len(p.rows) / p.stride }

// row returns the scored cells (scores 1..scale) of value v's row.
func (p *partial) row(v int) []int32 {
	base := v * p.stride
	return p.rows[base+1 : base+p.stride]
}

// census counts the subgroups (rows with at least one scored record) and
// the scored records of the candidate.
func (p *partial) census() (nsub, nRecords int) {
	for v, nv := 1, p.nValues(); v < nv; v++ {
		n := 0
		for _, c := range p.row(v) {
			n += int(c)
		}
		if n > 0 {
			nsub++
			nRecords += n
		}
	}
	return nsub, nRecords
}

// Build materializes every candidate in one pass over all records of the
// group — the unshared, unpruned path used by the Naive engine variant and
// by tests as ground truth.
func (b *Builder) Build(desc query.Description, records []int32, keys []Key) []*RatingMap {
	acc := b.NewAccumulator(desc, keys)
	acc.Update(records)
	pos := make([]int, len(keys))
	for i := range pos {
		pos[i] = i
	}
	return acc.SnapshotsAt(pos)
}
