package query

import (
	"fmt"
	"sync"

	"subdex/internal/dataset"
)

// RatingGroup is a materialized group g_R: the rating records whose reviewer
// belongs to the reviewer group g_U and whose item belongs to the item group
// g_I defined by a Description (§3.1).
type RatingGroup struct {
	Desc Description
	// Records holds positions into the database's rating table, ascending.
	Records []int32
	// Reviewers and Items are the matching entity row sets.
	Reviewers *Bitset
	Items     *Bitset
}

// Len returns the number of rating records in the group.
func (g *RatingGroup) Len() int { return len(g.Records) }

// Engine materializes descriptions against a database. It memoizes, per
// selector, the entity rows the selector admits and — built on the first
// materialization that needs it — the rating records it admits, so a
// repeated candidate evaluation during recommendation building costs a few
// word-wise ANDs. The memo is guarded: the parallel Recommendation Builder
// materializes many descriptions concurrently.
//
// The memo is bounded by the dictionaries: at most one entry per
// registered attribute value, each holding an entity bitset and a record
// bitset of N/8 bytes over the N-record rating table.
type Engine struct {
	DB *dataset.DB

	mu     sync.RWMutex
	sels   map[string]*selectorIndex
	groups *groupCache // optional whole-group cache (EnableGroupCache)
}

// selectorIndex is the memo of one selector. rows is set at creation;
// records stays nil until the first materialization involving the
// selector and is read and published under Engine.mu.
type selectorIndex struct {
	rows    *Bitset // entity rows of the selector's side
	records *Bitset // rating-table positions whose entity is in rows
}

// NewEngine wraps a frozen database.
func NewEngine(db *dataset.DB) (*Engine, error) {
	if !db.Frozen() {
		return nil, fmt.Errorf("query: database %q is not frozen", db.Name)
	}
	return &Engine{DB: db, sels: make(map[string]*selectorIndex)}, nil
}

// table returns the entity table of a side.
func (e *Engine) table(side Side) *dataset.EntityTable {
	if side == ReviewerSide {
		return e.DB.Reviewers
	}
	return e.DB.Items
}

// Validate checks that every selector references an existing attribute and a
// registered value of that attribute.
func (e *Engine) Validate(d Description) error {
	for _, s := range d.Selectors() {
		t := e.table(s.Side)
		a := t.Schema.Index(s.Attr)
		if a < 0 {
			return fmt.Errorf("query: %s has no attribute %q", s.Side, s.Attr)
		}
		if _, ok := t.Dict(a).Lookup(s.Value); !ok {
			return fmt.Errorf("query: %s.%s has no value %q", s.Side, s.Attr, s.Value)
		}
	}
	return nil
}

// selector returns the memo of one selector, creating it with its entity
// rows on first use.
func (e *Engine) selector(s Selector) (*selectorIndex, error) {
	key := s.Key()
	e.mu.RLock()
	ix, ok := e.sels[key]
	e.mu.RUnlock()
	if ok {
		return ix, nil
	}
	t := e.table(s.Side)
	a := t.Schema.Index(s.Attr)
	if a < 0 {
		return nil, fmt.Errorf("query: %s has no attribute %q", s.Side, s.Attr)
	}
	v, ok := t.Dict(a).Lookup(s.Value)
	if !ok {
		return nil, fmt.Errorf("query: %s.%s has no value %q", s.Side, s.Attr, s.Value)
	}
	rows := NewBitset(t.Len())
	for row := 0; row < t.Len(); row++ {
		if t.HasValue(a, row, v) {
			rows.Set(row)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if prev, ok := e.sels[key]; ok {
		return prev, nil // a concurrent first use won; keep one memo
	}
	ix = &selectorIndex{rows: rows}
	e.sels[key] = ix
	return ix, nil
}

// selectorRecords returns the rating records a selector admits, building
// the record bitset from its entity rows and the per-entity record index
// on first use.
func (e *Engine) selectorRecords(s Selector) (*Bitset, error) {
	ix, err := e.selector(s)
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	b := ix.records
	e.mu.RUnlock()
	if b != nil {
		return b, nil
	}
	recordsOf := e.DB.RecordsOfReviewer
	if s.Side == ItemSide {
		recordsOf = e.DB.RecordsOfItem
	}
	b = NewBitset(e.DB.Ratings.Len())
	ix.rows.Range(func(row int) {
		for _, r := range recordsOf(row) {
			b.Set(int(r))
		}
	})
	e.mu.Lock()
	defer e.mu.Unlock()
	if ix.records == nil {
		ix.records = b
	}
	return ix.records, nil
}

// EntityGroup materializes one side of a description as a row bitset.
func (e *Engine) EntityGroup(d Description, side Side) (*Bitset, error) {
	acc := FullBitset(e.table(side).Len())
	for _, s := range d.selectors {
		if s.Side != side {
			continue
		}
		ix, err := e.selector(s)
		if err != nil {
			return nil, err
		}
		acc.IntersectWith(ix.rows)
	}
	return acc, nil
}

// Materialize evaluates a description into a rating group. Records is the
// intersection of the selectors' record bitsets, sized by a popcount pass
// and extracted in ascending order, so its cost is a few word-wise ANDs
// over the rating table whatever the group's size. With the group cache
// enabled (EnableGroupCache), repeated selections are served from memory;
// the returned group must then be treated as immutable.
func (e *Engine) Materialize(d Description) (*RatingGroup, error) {
	g, _, err := e.cachedMaterialize(d)
	return g, err
}

func (e *Engine) materialize(d Description) (*RatingGroup, error) {
	ug, err := e.EntityGroup(d, ReviewerSide)
	if err != nil {
		return nil, err
	}
	ig, err := e.EntityGroup(d, ItemSide)
	if err != nil {
		return nil, err
	}
	g := &RatingGroup{Desc: d, Reviewers: ug, Items: ig}
	switch {
	case ug.Count() == 0 || ig.Count() == 0:
		// empty group
	case d.IsEmpty():
		g.Records = make([]int32, e.DB.Ratings.Len())
		for r := range g.Records {
			g.Records[r] = int32(r)
		}
	default:
		var buf [4]*Bitset // longer descriptions spill to the heap
		sets := buf[:0]
		for _, s := range d.selectors {
			b, err := e.selectorRecords(s)
			if err != nil {
				return nil, err
			}
			sets = append(sets, b)
		}
		g.Records = intersectionElements(sets)
	}
	return g, nil
}

// GroupingCandidate describes one way to partition a rating group: by an
// attribute of the reviewer or item table that is not already bound by the
// group's description.
type GroupingCandidate struct {
	Side Side
	Attr string
}

// EachGroupingCandidate calls f, reviewer attributes first and then item
// attributes in schema order, for every attribute a rating map may group d
// by. Attributes already bound to a value are excluded — their partition
// would be a single subgroup — and so are attributes with fewer than two
// values. Visiting instead of returning a slice lets a caller count the
// candidates and then fill its own exactly sized slice.
func (e *Engine) EachGroupingCandidate(d Description, f func(GroupingCandidate)) {
	for _, side := range [...]Side{ReviewerSide, ItemSide} {
		t := e.table(side)
		for a := 0; a < t.Schema.Len(); a++ {
			name := t.Schema.At(a).Name
			if d.BindsAttr(side, name) || t.ValueCardinality(a) < 2 {
				continue
			}
			f(GroupingCandidate{Side: side, Attr: name})
		}
	}
}

// AttributeValues returns the registered values of an attribute, sorted.
func (e *Engine) AttributeValues(side Side, attr string) ([]string, error) {
	t := e.table(side)
	a := t.Schema.Index(attr)
	if a < 0 {
		return nil, fmt.Errorf("query: %s has no attribute %q", side, attr)
	}
	return t.Dict(a).Values(), nil
}
