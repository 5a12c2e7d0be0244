package main

import (
	"math"
	"testing"

	"durability/internal/exact"
)

// The dynamic programme with a lattice step law is the exact forward
// computation of internal/exact run backwards, so the two agree to
// rounding.
func TestLatticeTableMatchesExact(t *testing.T) {
	probs := map[int]float64{-1: 0.35, 0: 0.2, 1: 0.3, 2: 0.15}
	const horizon = 60
	tab := latticeTable(probs, horizon, 200)
	for _, h := range []int{1, 7, 30, 60} {
		for d := 1; d <= 15; d++ {
			want, err := exact.LatticeWalkHit(probs, 0, d, h, -1000)
			if err != nil {
				t.Fatal(err)
			}
			if got := tab.P(float64(d), h); math.Abs(got-want) > 1e-12 {
				t.Errorf("h=%d d=%d: table %.15g, exact %.15g", h, d, got, want)
			}
		}
	}
}

// For a Gaussian walk over many steps, Siegmund's corrected diffusion
// approximation — the Brownian maximum tail with the barrier shifted up by
// 0.5826 standard deviations of one step — is accurate to well under a
// percent away from the first few steps.
func TestGaussianTableMatchesSiegmund(t *testing.T) {
	for _, c := range []struct{ m, s float64 }{{0, 1}, {-0.02, 1}, {0.00025, 0.01}} {
		const horizon = 400
		tab := gaussianTable(c.m, c.s, horizon, 30*c.s, referenceCellsPerSigma)
		for _, h := range []int{100, 250, 400} {
			for _, d := range []float64{5, 10, 20} {
				dist := d * c.s
				want, err := exact.BrownianMaxTail(c.m, c.s, float64(h), dist+0.5826*c.s)
				if err != nil {
					t.Fatal(err)
				}
				got := tab.P(dist, h)
				if rel := math.Abs(got-want) / want; rel > 0.01 {
					t.Errorf("m=%g s=%g h=%d d=%g: table %.6g, Siegmund %.6g (rel %.4f)", c.m, c.s, h, dist, got, want, rel)
				}
			}
		}
	}
}

// The reference grid is converged at every value the workloads check
// against at the models' initial states: doubling its resolution moves
// none by more than 0.25% of itself. The scheme is second order, so the
// error of the grid in use is about 4/3 of that difference.
func TestGaussianGridConverged(t *testing.T) {
	const horizon = 700
	coarse := newReference(serverModel, horizon)
	fine := map[string]modelTable{}
	for name, r := range coarse {
		m := serverModel.drift
		if name == "gbm" {
			m -= serverModel.sigma * serverModel.sigma / 2
		}
		fine[name] = modelTable{table: gaussianTable(m, serverModel.sigma, horizon, maxDist, 2*referenceCellsPerSigma), dist: r.dist}
	}
	check := func(model string, beta float64, h int) {
		v := startValue(model)
		a, b := coarse[model].P(v, beta, h), fine[model].P(v, beta, h)
		if rel := math.Abs(a-b) / b; rel > 0.0025 {
			t.Errorf("%s beta=%g h=%d: %d cells/sigma %.6g, %d cells/sigma %.6g (rel %.5f)",
				model, beta, h, referenceCellsPerSigma, a, 2*referenceCellsPerSigma, b, rel)
		}
	}
	for _, s := range append(append(append([]shape(nil), warmShapes...), subShapes...), coldShapes...) {
		check(s.Model, s.Beta, s.Horizon)
	}
	for _, s := range coldShapes {
		check(s.Model, s.Beta, s.Horizon+400)
	}
	for _, s := range ladderShapes {
		for _, b := range s.Betas {
			check(s.Model, b, s.Horizon)
		}
	}
}
