package main

import (
	"math"

	"durability/internal/stats"
)

// hitTable holds the benchmark's own ground truth for threshold queries on
// a random walk: rows[k][i] is the probability that the walk, started at
// distance d_i below the threshold, reaches the threshold within k steps.
// One backward pass fills every horizon up to the longest and every
// distance on the grid, so one table answers every query, ladder rung and
// standing-query tick of a workload.
type hitTable struct {
	dx     float64     // grid spacing in distance
	center float64     // offset of node 0's distance in units of dx
	rows   [][]float64 // rows[k][i], k = 0..horizon
}

// backward runs the dynamic programme over n distance nodes. A step from
// node i lands on node i+k with probability w[k+K] for |k| <= K; absorb[i]
// is the probability that the step from node i reaches the threshold.
// Landing beyond the last node kills the path (it counts as a miss), so
// the grid must reach far enough below the threshold that returning from
// there within the horizon is negligible.
func backward(n, horizon, K int, w, absorb []float64) [][]float64 {
	rows := make([][]float64, horizon+1)
	rows[0] = make([]float64, n)
	for h := 1; h <= horizon; h++ {
		prev, cur := rows[h-1], make([]float64, n)
		for i := 0; i < n; i++ {
			lo, hi := max(0, i-K), min(n-1, i+K)
			sum := absorb[i]
			ws := w[lo-i+K : hi-i+K+1]
			for j, u := range prev[lo : hi+1] {
				sum += ws[j] * u
			}
			cur[i] = sum
		}
		rows[h] = cur
	}
	return rows
}

// gaussianTable builds the table for the walk X' = X + m + s·Z, Z standard
// normal, on cells of width dx = s/cellsPerSigma: node i stands for the
// cell of distances [i·dx, (i+1)·dx) and carries the value at its centre.
// The transition weights are the exact normal masses of the landing cells,
// which makes the scheme second order in dx. The grid reaches maxDist plus
// five standard deviations of the whole horizon's displacement below the
// threshold.
func gaussianTable(m, s float64, horizon int, maxDist float64, cellsPerSigma int) *hitTable {
	dx := s / float64(cellsPerSigma)
	reach := maxDist + 5*s*math.Sqrt(float64(horizon)) + math.Max(m, 0)*float64(horizon)
	n := int(math.Ceil(reach/dx)) + 1
	K := int(math.Ceil((8*s+math.Abs(m))/dx)) + 1
	w := make([]float64, 2*K+1)
	for k := -K; k <= K; k++ {
		// From centre c_i the distance becomes c_i - m - s·Z; it lands in
		// cell i+k when (-k-0.5)·dx - m < s·Z <= (-k+0.5)·dx - m.
		hi := ((-float64(k)+0.5)*dx - m) / s
		lo := ((-float64(k)-0.5)*dx - m) / s
		w[k+K] = stats.NormCDF(hi) - stats.NormCDF(lo)
	}
	absorb := make([]float64, n)
	for i := range absorb {
		c := (float64(i) + 0.5) * dx
		absorb[i] = 1 - stats.NormCDF((c-m)/s) // the step carries the walk past the threshold
	}
	return &hitTable{dx: dx, center: 0.5, rows: backward(n, horizon, K, w, absorb)}
}

// latticeTable builds the table for an integer walk whose step law is
// probs (step size -> probability): node i stands for distance i+1, and a
// step of size s from distance d reaches the threshold when s >= d. It
// exists to check the dynamic programme against internal/exact.
func latticeTable(probs map[int]float64, horizon, n int) *hitTable {
	K := 0
	for s := range probs {
		K = max(K, s, -s)
	}
	w := make([]float64, 2*K+1)
	for s, p := range probs {
		w[-s+K] += p // distance falls by the step
	}
	absorb := make([]float64, n)
	for i := range absorb {
		for s, p := range probs {
			if s >= i+1 {
				absorb[i] += p
			}
		}
	}
	return &hitTable{dx: 1, center: 1, rows: backward(n, horizon, K, w, absorb)}
}

// P returns the probability of reaching the threshold within h steps from
// distance dist below it, interpolating linearly between grid nodes (and
// extrapolating from the first two nodes in the half cell nearest the
// threshold). A state at or above the threshold has already reached it.
func (t *hitTable) P(dist float64, h int) float64 {
	if dist <= 0 {
		return 1
	}
	row := t.rows[h]
	x := dist/t.dx - t.center
	i := min(max(int(math.Floor(x)), 0), len(row)-2)
	f := x - float64(i)
	return math.Min(1, math.Max(0, row[i]+f*(row[i+1]-row[i])))
}

// modelTable is the reference for one served model: its walk in the
// coordinate where it is Gaussian, and the map from a state value and a
// threshold to the distance in that coordinate.
type modelTable struct {
	table *hitTable
	dist  func(value, beta float64) float64
}

func (r modelTable) P(value, beta float64, h int) float64 {
	return r.table.P(r.dist(value, beta), h)
}

// referenceCellsPerSigma is the grid resolution of every reference table;
// TestGaussianGridConverged bounds its error against a grid twice as fine.
const referenceCellsPerSigma = 16

// maxDist is the largest distance below a threshold the workloads ask
// about, in log space for gbm and linear space for walk, with room for the
// survival band of standing queries.
const maxDist = 0.5

// newReference builds the reference of the served gbm and walk models for
// horizons up to horizon. gbm steps log S by mu - sigma²/2 + sigma·Z; walk
// steps X by drift + sigma·Z.
func newReference(p modelParams, horizon int) map[string]modelTable {
	return map[string]modelTable{
		"gbm": {
			table: gaussianTable(p.drift-p.sigma*p.sigma/2, p.sigma, horizon, maxDist, referenceCellsPerSigma),
			dist:  func(v, beta float64) float64 { return math.Log(beta / v) },
		},
		"walk": {
			table: gaussianTable(p.drift, p.sigma, horizon, maxDist, referenceCellsPerSigma),
			dist:  func(v, beta float64) float64 { return beta - v },
		},
	}
}
