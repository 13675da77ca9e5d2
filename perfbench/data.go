package main

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"netcoord"
)

// point is the benchmark's own copy of one registry entry. The checks
// compute against these copies, never against the program's state.
type point struct {
	id     string
	vec    [3]float64
	height float64
	err    float64
	region int
}

func (p point) coordinate() netcoord.Coordinate {
	return netcoord.Coordinate{Vec: p.vec[:], Height: p.height}
}

// regionWeights gives the regions unequal sizes, so shards and index
// subtrees see dense and sparse neighbourhoods alike.
var regionWeights = []float64{0.30, 0.22, 0.16, 0.12, 0.08, 0.06, 0.04, 0.02}

// layout is a set of regions: a center and a spread (ms) each. The
// geometry is fixed, so every seed gives inputs of the same density
// and overlap; the seed only draws the points.
type layout struct {
	center [][3]float64
	spread []float64
}

func newLayout() layout {
	var l layout
	for r := range regionWeights {
		a := 2 * math.Pi * float64(r) / float64(len(regionWeights))
		l.center = append(l.center, [3]float64{100 * math.Cos(a), 100 * math.Sin(a), float64(20 * (1 - 2*(r%2)))})
		l.spread = append(l.spread, []float64{6, 9, 12, 8, 5, 10, 7, 11}[r])
	}
	return l
}

// place draws a position in region r.
func (l layout) place(rng *rand.Rand, r int) [3]float64 {
	var v [3]float64
	for d := range v {
		v[d] = l.center[r][d] + rng.NormFloat64()*l.spread[r]
	}
	return v
}

// genPoints draws n entries clustered into the layout's regions. Every
// 97th entry copies its predecessor's coordinate exactly, so queries
// meet exact distance ties that only the id breaks.
func genPoints(rng *rand.Rand, l layout, n int) []point {
	pts := make([]point, n)
	for i := range pts {
		r := pickRegion(rng)
		p := point{
			id:     fmt.Sprintf("n%06d", i),
			vec:    l.place(rng, r),
			height: 0.5 + 4.5*rng.Float64(),
			err:    0.05 + 0.45*rng.Float64(),
			region: r,
		}
		if i > 0 && i%97 == 0 {
			p.vec, p.height, p.region = pts[i-1].vec, pts[i-1].height, pts[i-1].region
		}
		pts[i] = p
	}
	return pts
}

func pickRegion(rng *rand.Rand) int {
	u := rng.Float64()
	for r, w := range regionWeights {
		if u < w {
			return r
		}
		u -= w
	}
	return len(regionWeights) - 1
}

// dist is the estimated RTT between two coordinates: the Euclidean
// distance plus both heights, summed in the order the coordinate model
// defines it.
func dist(from [3]float64, fromH float64, to [3]float64, toH float64) float64 {
	var sum float64
	for d := range from {
		x := from[d] - to[d]
		sum += x * x
	}
	return math.Sqrt(sum) + fromH + toH
}

// ranked is one answer row: an id and its estimated RTT.
type ranked struct {
	id string
	d  float64
}

func rankedBefore(a, b ranked) int {
	if c := cmp.Compare(a.d, b.d); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// bruteKNN is the reference answer: the k entries nearest to from by
// (distance, id), skipping exclude, found by scanning every entry.
func bruteKNN(pts []point, from [3]float64, fromH float64, k int, exclude string) []ranked {
	best := make([]ranked, 0, k+1)
	for i := range pts {
		p := &pts[i]
		if p.id == exclude {
			continue
		}
		r := ranked{p.id, dist(from, fromH, p.vec, p.height)}
		if len(best) == k && rankedBefore(r, best[k-1]) >= 0 {
			continue
		}
		at, _ := slices.BinarySearchFunc(best, r, rankedBefore)
		best = slices.Insert(best, at, r)
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// compareRanked reports the first difference between a served answer
// and the reference: ids must match position by position, distances
// to within rounding.
func compareRanked(got, want []ranked) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].id != want[i].id {
			return fmt.Errorf("rank %d is %s (%.9g ms), want %s (%.9g ms)", i, got[i].id, got[i].d, want[i].id, want[i].d)
		}
		if math.Abs(got[i].d-want[i].d) > 1e-9*(1+want[i].d) {
			return fmt.Errorf("rank %d (%s) at %.12g ms, want %.12g ms", i, got[i].id, got[i].d, want[i].d)
		}
	}
	return nil
}

// answerJSON is one served result row, decoded by the benchmark's own
// types rather than the server's.
type answerJSON struct {
	ID  string  `json:"id"`
	RTT float64 `json:"estimated_rtt_ms"`
}

func toRanked(rows []answerJSON) []ranked {
	out := make([]ranked, len(rows))
	for i, r := range rows {
		out[i] = ranked{r.ID, r.RTT}
	}
	return out
}

// coordJSON is a coordinate in request bodies.
type coordJSON struct {
	Vec    []float64 `json:"vec"`
	Height float64   `json:"height,omitempty"`
}
