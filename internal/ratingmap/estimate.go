package ratingmap

import (
	"math"
	"slices"
)

// CriteriaEstimate computes the four bounded criteria of a candidate's
// current partial state directly from the accumulator, without
// materializing a RatingMap (no subgroup structs, no sorting). This is the
// per-phase estimation path of the engine: with tens of candidates times
// ten phases, estimation cost must stay far below scan cost or pruning
// cannot pay for itself. recordScale projects conciseness to the full
// group as in ComputeScoresScaled. ok is false for unknown candidates.
func (a *Accumulator) CriteriaEstimate(k Key, seen *SeenSet, recordScale float64) (Scores, bool) {
	return a.CriteriaEstimateOpt(k, seen, recordScale, PecTVD)
}

// CriteriaEstimateOpt is CriteriaEstimate under an explicit peculiarity
// measure, keeping the pruning estimates consistent with the configured
// exact scoring.
func (a *Accumulator) CriteriaEstimateOpt(k Key, seen *SeenSet, recordScale float64, m PeculiarityMeasure) (s Scores, ok bool) {
	i := a.index(k)
	if i < 0 {
		return s, false
	}
	return a.CriteriaEstimateAt(i, seen, recordScale, m), true
}

// maxStackScale bounds the rating scales whose per-estimate distributions
// live on the stack; wider scales (none of the generated datasets has
// one) fall back to the heap.
const maxStackScale = 64

// CriteriaEstimateAt is CriteriaEstimateOpt for the candidate at position
// i of Keys(). It reads the candidate's rows in ascending value-id order
// and, for scales up to maxStackScale, allocates nothing under PecTVD.
func (a *Accumulator) CriteriaEstimateAt(i int, seen *SeenSet, recordScale float64, m PeculiarityMeasure) Scores {
	p := &a.parts[i]
	var buf [maxStackScale]float64
	pooled := buf[:0]
	if p.scale <= maxStackScale {
		pooled = buf[:p.scale]
	} else {
		pooled = make([]float64, p.scale)
	}
	s, ok := p.baseScores(recordScale, m, pooled)
	if ok {
		s[PecGlobal] = seen.maxDistAgainst(pooled, m)
	}
	return s
}

// baseScores computes the candidate's seen-independent criteria —
// conciseness projected by recordScale, agreement and self peculiarity —
// and writes its pooled distribution into pooled, which must be zeroed
// and p.scale long. ok is false for a candidate without subgroups, whose
// criteria are all 0.
func (p *partial) baseScores(recordScale float64, m PeculiarityMeasure, pooled []float64) (s Scores, ok bool) {
	// Pooled distribution and subgroup count, one pass over the rows.
	nsub, nRecords := 0, 0
	for v, nv := 1, p.nValues(); v < nv; v++ {
		n := 0
		for j, c := range p.row(v) {
			pooled[j] += float64(c)
			n += int(c)
		}
		if n > 0 {
			nsub++
			nRecords += n
		}
	}
	if nsub == 0 {
		return s, false
	}
	total := float64(nRecords)
	for j := range pooled {
		pooled[j] /= total
	}

	// Conciseness (projected compaction gain, log-scaled).
	gain := recordScale * total / float64(nsub)
	conc := math.Log1p(gain) / log1pConcGainRef
	if conc > 1 {
		conc = 1
	}
	s[Conciseness] = conc

	// Agreement (record-weighted subgroup SD) and self peculiarity
	// (support-shrunk max subgroup TVD), one pass per subgroup.
	sdSum := 0.0
	maxTVD := 0.0
	for v, nv := 1, p.nValues(); v < nv; v++ {
		row := p.row(v)
		n := 0
		for _, c := range row {
			n += int(c)
		}
		if n == 0 {
			continue
		}
		fn := float64(n)
		mean := 0.0
		for j, c := range row {
			mean += float64(j+1) * float64(c)
		}
		mean /= fn
		variance := 0.0
		tvd := 0.0
		for j, c := range row {
			d := float64(j+1) - mean
			variance += float64(c) * d * d
			tvd += math.Abs(float64(c)/fn - pooled[j])
		}
		sdSum += fn * math.Sqrt(variance/fn)
		var t float64
		if m == PecTVD {
			t = tvd / 2
		} else {
			t = rowPecDist(row, fn, pooled, m)
		}
		t *= fn / (fn + pecSupport)
		if t > maxTVD {
			maxTVD = t
		}
	}
	s[Agreement] = 1 / (1 + sdSum/total)
	s[PecSelf] = maxTVD
	return s, true
}

// BaseSet memoizes the seen-independent part of a completed
// accumulator's final criteria: per candidate, conciseness (at
// recordScale 1), agreement and self peculiarity under one peculiarity
// measure, and which pooled distribution it has. Only global peculiarity
// depends on the session's history, so a BaseSet built once per
// completed scan serves every later scoring pass of it. Candidates
// grouping the same records on the same dimension often share their
// pooled distribution, so each distinct one is stored, and later scored
// against the history, once. The table holds no pointers but its three
// backing arrays.
type BaseSet struct {
	m      PeculiarityMeasure
	base   []baseEntry
	dists  []distSpan // the distinct pooled distributions
	pooled []float64  // their values, concatenated
}

// baseEntry is one candidate's memoized criteria and the index of its
// pooled distribution in BaseSet.dists (-1 for a candidate without
// subgroups, whose criteria are all 0).
type baseEntry struct {
	scores Scores // PecGlobal left 0
	dist   int32
}

// distSpan locates one distinct pooled distribution in BaseSet.pooled.
type distSpan struct{ off, n int32 }

// NewBaseSet computes the BaseSet of every candidate of acc under
// peculiarity measure m, reading each candidate's rows once.
func NewBaseSet(acc *Accumulator, m PeculiarityMeasure) *BaseSet {
	// A dimension's candidates pool either all of the group's scored
	// records or all but those missing the grouping attribute, so there
	// are typically about two distinct distributions per dimension.
	dims := acc.db.Ratings.Dimensions
	b := &BaseSet{
		m:      m,
		base:   make([]baseEntry, len(acc.parts)),
		dists:  make([]distSpan, 0, 2*len(dims)),
		pooled: make([]float64, 0, 2*len(dims)*dims[0].Scale),
	}
	var buf [maxStackScale]float64
	for i := range acc.parts {
		p := &acc.parts[i]
		pooled := buf[:0]
		if p.scale <= maxStackScale {
			pooled = buf[:p.scale]
			clear(pooled)
		} else {
			pooled = make([]float64, p.scale)
		}
		s, ok := p.baseScores(1, m, pooled)
		e := &b.base[i]
		e.scores, e.dist = s, -1
		if ok {
			e.dist = b.intern(pooled)
		}
	}
	return b
}

// intern returns the index of the stored distribution equal to dist,
// storing dist first when it is new.
func (b *BaseSet) intern(dist []float64) int32 {
	for d, sp := range b.dists {
		if slices.Equal(b.pooled[sp.off:sp.off+sp.n], dist) {
			return int32(d)
		}
	}
	b.dists = append(b.dists, distSpan{off: int32(len(b.pooled)), n: int32(len(dist))})
	b.pooled = append(b.pooled, dist...)
	return int32(len(b.dists) - 1)
}

// Against binds the set to one seen history: it computes the global
// peculiarity of each distinct pooled distribution once. The set is only
// read, so one cached BaseSet serves concurrent scoring passes.
func (b *BaseSet) Against(seen *SeenSet) SeenScores {
	pec := make([]float64, len(b.dists))
	for d, sp := range b.dists {
		pec[d] = seen.maxDistAgainst(b.pooled[sp.off:sp.off+sp.n], b.m)
	}
	return SeenScores{base: b.base, pec: pec}
}

// SeenScores is a BaseSet bound to one seen history (see Against).
type SeenScores struct {
	base []baseEntry
	pec  []float64 // global peculiarity per distinct pooled distribution
}

// At returns the final criteria of the candidate at position i of the
// accumulator's Keys(): its memoized base plus its global peculiarity.
// It equals CriteriaEstimateAt(i, seen, 1, m) bit for bit, seen and m
// being the history and measure the scores were bound to.
func (s SeenScores) At(i int) Scores {
	e := &s.base[i]
	out := e.scores
	if e.dist >= 0 {
		out[PecGlobal] = s.pec[e.dist]
	}
	return out
}

// rowPecDist is the peculiarity distance of one subgroup row (n scored
// records) from the pooled distribution under a non-TVD measure, which
// needs the subgroup distribution explicitly.
func rowPecDist(row []int32, n float64, pooled []float64, m PeculiarityMeasure) float64 {
	var buf [maxStackScale]float64
	sub := buf[:0]
	if len(row) <= maxStackScale {
		sub = buf[:len(row)]
	} else {
		sub = make([]float64, len(row))
	}
	for j, c := range row {
		sub[j] = float64(c) / n
	}
	return pecDist(sub, pooled, m)
}

// maxDistAgainst returns the maximum peculiarity distance between dist and
// the pooled distributions of the seen maps (0 with no history or only
// incomparable scales).
func (s *SeenSet) maxDistAgainst(dist []float64, m PeculiarityMeasure) float64 {
	if s == nil {
		return 0
	}
	maxD := 0.0
	for _, d := range s.dists {
		if len(d) != len(dist) {
			continue
		}
		var t float64
		if m == PecTVD {
			sum := 0.0
			for i := range d {
				sum += math.Abs(d[i] - dist[i])
			}
			t = sum / 2
		} else {
			t = pecDist(dist, d, m)
		}
		if t > maxD {
			maxD = t
		}
	}
	return maxD
}
