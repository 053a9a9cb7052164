package ratingmap

import (
	"subdex/internal/dataset"
	"subdex/internal/query"
)

// oracle is the map-based test oracle for the Accumulator: per candidate,
// a value → histogram map filled one record at a time through the
// row-oriented dataset accessors (AtomicValue, MultiValues), with a kind
// switch and an explicit missing-value/missing-score branch per record.
// It shares no code with the dense rows or the columnar kernel, so
// agreement between the two is evidence, not tautology. It mirrors the
// Accumulator's mutating API (Update, Remove, Merge) and its read side
// (Snapshot, NumRecords, RecordVisits).
type oracle struct {
	db     *dataset.DB
	keys   []Key
	hist   map[Key]map[dataset.ValueID][]int
	visits int
}

func newOracle(db *dataset.DB, keys []Key) *oracle {
	o := &oracle{db: db, hist: make(map[Key]map[dataset.ValueID][]int)}
	for _, k := range keys {
		o.register(k)
	}
	return o
}

func (o *oracle) register(k Key) {
	if _, ok := o.hist[k]; ok {
		return
	}
	o.keys = append(o.keys, k)
	o.hist[k] = make(map[dataset.ValueID][]int)
}

func (o *oracle) table(side query.Side) (*dataset.EntityTable, []int32) {
	if side == query.ReviewerSide {
		return o.db.Reviewers, o.db.Ratings.Reviewer
	}
	return o.db.Items, o.db.Ratings.Item
}

// Update tallies every record into every live candidate and counts one
// visit per (record, resolvable attribute with a live candidate).
func (o *oracle) Update(records []int32) {
	type attr struct {
		side query.Side
		name string
	}
	scanned := make(map[attr]bool)
	for _, k := range o.keys {
		t, rowOf := o.table(k.Side)
		ai := t.Schema.Index(k.Attr)
		if ai < 0 {
			continue
		}
		if a := (attr{k.Side, k.Attr}); !scanned[a] {
			scanned[a] = true
			o.visits += len(records)
		}
		scale := o.db.Ratings.Dimensions[k.Dim].Scale
		h := o.hist[k]
		add := func(v dataset.ValueID, s dataset.Score) {
			if s == 0 {
				return
			}
			c := h[v]
			if c == nil {
				c = make([]int, scale)
				h[v] = c
			}
			c[s-1]++
		}
		for _, r := range records {
			row := int(rowOf[r])
			s := o.db.Ratings.Scores[k.Dim][r]
			switch t.Schema.At(ai).Kind {
			case dataset.Atomic:
				if v := t.AtomicValue(ai, row); v != dataset.MissingValue {
					add(v, s)
				}
			case dataset.MultiValued:
				for _, v := range t.MultiValues(ai, row) {
					add(v, s)
				}
			}
		}
	}
}

func (o *oracle) Remove(k Key) {
	for i, key := range o.keys {
		if key == k {
			o.keys = append(o.keys[:i], o.keys[i+1:]...)
			delete(o.hist, k)
			return
		}
	}
}

// Merge adds other's histograms key by key and value by value.
func (o *oracle) Merge(other *oracle) {
	for _, k := range other.keys {
		o.register(k)
		h := o.hist[k]
		for v, oc := range other.hist[k] {
			c := h[v]
			if c == nil {
				c = make([]int, len(oc))
				h[v] = c
			}
			for s, n := range oc {
				c[s] += n
			}
		}
	}
	o.visits += other.visits
}

// Snapshot renders a candidate's histograms as a RatingMap (subgroups in
// no particular order: Digest sorts by value), nil for unknown keys.
func (o *oracle) Snapshot(k Key) *RatingMap {
	h, ok := o.hist[k]
	if !ok {
		return nil
	}
	scale := o.db.Ratings.Dimensions[k.Dim].Scale
	rm := &RatingMap{Key: k, Scale: scale, total: make([]int, scale)}
	for v, c := range h {
		n := 0
		for s, x := range c {
			n += x
			rm.total[s] += x
		}
		rm.TotalRecords += n
		rm.Subgroups = append(rm.Subgroups, Subgroup{Value: v, Counts: append([]int(nil), c...), N: n})
	}
	return rm
}

func (o *oracle) NumRecords(k Key) int {
	if rm := o.Snapshot(k); rm != nil {
		return rm.TotalRecords
	}
	return 0
}

func (o *oracle) RecordVisits() int { return o.visits }
