package ratingmap

import "math"

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
func (a *Accumulator) CriteriaEstimateAt(i int, seen *SeenSet, recordScale float64, m PeculiarityMeasure) (s Scores) {
	p := a.parts[i]
	var buf [maxStackScale]float64
	pooled := buf[:0]
	if p.scale <= maxStackScale {
		pooled = buf[:p.scale]
	} else {
		pooled = make([]float64, p.scale)
	}

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
		return s
	}
	total := float64(nRecords)
	for j := range pooled {
		pooled[j] /= total
	}

	// Conciseness (projected compaction gain, log-scaled).
	gain := recordScale * total / float64(nsub)
	conc := math.Log1p(gain) / math.Log1p(concGainRef)
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

	// Global peculiarity against the seen pooled distributions.
	s[PecGlobal] = seen.maxDistAgainst(pooled, m)
	return s
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
