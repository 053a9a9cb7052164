// Package diversity implements the diversity side of SubDEx's rating-map
// selection (§3.2.4, §4.2.2): the Earth Mover's Distance between rating
// maps, the min-pairwise-distance diversity of a set, and the GMM algorithm
// of Gonzalez [29] — a 2-approximation for choosing the k-size subset of
// maximal dispersion.
package diversity

import (
	"math"

	"subdex/internal/ratingmap"
	"subdex/internal/stats"
)

// Distance is a metric-ish distance between two rating maps.
type Distance func(a, b *ratingmap.RatingMap) float64

// EMD is the rating-map distance used for diversity: the Earth Mover's
// Distance — the measure the paper adopts because it respects the ordering
// of the rating scale — averaged over two views of each map: its pooled
// rating distribution (which separates maps on different dimensions) and
// its subgroup-average signature (which separates different groupings of
// the same records; the pooled view alone is grouping-blind). Maps with
// different scales are maximally distant. Both views come from
// RatingMap.Vectors, so on snapshot-built maps EMD allocates nothing.
func EMD(a, b *ratingmap.RatingMap) float64 {
	da, sa := a.Vectors()
	db, sb := b.Vectors()
	if len(da) != len(db) {
		return math.Inf(1)
	}
	pooled, _ := stats.NormalizedEarthMovers(da, db)
	sig, _ := stats.NormalizedEarthMovers(sa, sb)
	return (pooled + sig) / 2
}

// PooledEMD is the paper-literal distance over pooled distributions only,
// kept for the diversity ablation benches.
func PooledEMD(a, b *ratingmap.RatingMap) float64 {
	da, _ := a.Vectors()
	db, _ := b.Vectors()
	if len(da) != len(db) {
		return math.Inf(1)
	}
	d, _ := stats.NormalizedEarthMovers(da, db)
	return d
}

// EMDWithAttribute augments EMD with a small bonus when the two maps group
// by different attributes or aggregate different dimensions, breaking ties
// between identical distributions so distinct facets surface. The paper
// observes that EMD alone already "increases the probability of choosing
// rating maps aggregated by different attributes"; this variant is used in
// the ablation benches only.
func EMDWithAttribute(a, b *ratingmap.RatingMap) float64 {
	d := EMD(a, b)
	if math.IsInf(d, 1) {
		return d
	}
	if a.Attr != b.Attr || a.Side != b.Side {
		d += 0.05
	}
	if a.Dim != b.Dim {
		d += 0.05
	}
	return d
}

// SetDiversity is div(RM) = min over pairs of d(rm, rm'), Abbar et al. [7].
// Sets of fewer than two maps have diversity 0 by convention.
func SetDiversity(maps []*ratingmap.RatingMap, d Distance) float64 {
	if len(maps) < 2 {
		return 0
	}
	minD := math.Inf(1)
	for i := 0; i < len(maps); i++ {
		for j := i + 1; j < len(maps); j++ {
			if dist := d(maps[i], maps[j]); dist < minD {
				minD = dist
			}
		}
	}
	return minD
}

// AvgPairwiseDiversity is the mean pairwise distance, the "average diversity
// score" reported in Table 5.
func AvgPairwiseDiversity(maps []*ratingmap.RatingMap, d Distance) float64 {
	if len(maps) < 2 {
		return 0
	}
	sum, n := 0.0, 0
	for i := 0; i < len(maps); i++ {
		for j := i + 1; j < len(maps); j++ {
			sum += d(maps[i], maps[j])
			n++
		}
	}
	return sum / float64(n)
}

// GMM selects k indices out of the candidate set maximizing dispersion with
// the greedy algorithm of Gonzalez [29]: start from a seed, then repeatedly
// add the candidate whose minimum distance to the chosen set is maximal.
// It achieves a 2-approximation of the optimal minimum pairwise distance
// and runs in O(k·n) distance evaluations (the paper states O(k²·l) for
// n = k·l candidates).
//
// seed selects the starting map ("an arbitrary rating map" in the paper);
// passing 0 is the conventional deterministic choice, and the engine seeds
// with the highest-utility candidate so the top map is always shown.
func GMM(maps []*ratingmap.RatingMap, k int, seed int, d Distance) []int {
	n := len(maps)
	if k <= 0 || n == 0 {
		return nil
	}
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if seed < 0 || seed >= n {
		seed = 0
	}
	chosen := make([]int, 0, k)
	chosen = append(chosen, seed)
	// minDist[i] = distance from candidate i to its closest chosen map.
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = d(maps[i], maps[seed])
	}
	minDist[seed] = -1 // mark chosen
	for len(chosen) < k {
		best, bestD := -1, -1.0
		for i, md := range minDist {
			if md > bestD {
				best, bestD = i, md
			}
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, best)
		for i := range minDist {
			if minDist[i] < 0 {
				continue
			}
			if dd := d(maps[i], maps[best]); dd < minDist[i] {
				minDist[i] = dd
			}
		}
		minDist[best] = -1
	}
	return chosen
}

// SelectDiverse applies the paper's Problem 1 recipe to an already
// utility-ranked candidate list (descending DW utility): it runs GMM seeded
// at the top-utility candidate and returns the chosen maps in utility order.
func SelectDiverse(ranked []*ratingmap.RatingMap, k int, d Distance) []*ratingmap.RatingMap {
	idx := GMM(ranked, k, 0, d)
	// Preserve utility order among the chosen for display.
	pick := make(map[int]bool, len(idx))
	for _, i := range idx {
		pick[i] = true
	}
	out := make([]*ratingmap.RatingMap, 0, len(idx))
	for i, rm := range ranked {
		if pick[i] {
			out = append(out, rm)
		}
	}
	return out
}
