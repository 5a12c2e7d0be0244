package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// Thresholds of the statistical checks.
const (
	// coverageAlpha is the false-alarm probability of the coverage floor:
	// a correct 95% interval procedure falls below it with at most this
	// probability.
	coverageAlpha = 1e-3
	// meanZ bounds how many pooled standard errors a query shape's mean
	// estimate may sit from the reference. g-MLSS is unbiased, so the
	// mean of many independent answers converges on the reference.
	meanZ = 4.0
	// pointZ bounds a single answer's distance from the reference (or from
	// its partner subscription's answer) in standard errors.
	pointZ = 5.0
)

// checker collects the outcome of the per-answer checks (each failure
// fails its operation) and the per-run checks (each failure fails the
// run).
type checker struct {
	failedOps int
	runErrs   []string
	graded    []graded
	// perShape applies the coverage floor to each shape on its own, at a
	// Bonferroni share of the false-alarm probability: the rungs of one
	// batch answer share a run and are not independent of each other,
	// while answers to one rung across requests are.
	perShape bool
}

type graded struct {
	shape         int
	p, se, lo, hi float64
	ref           float64
}

// fail records an operation whose response broke a per-answer check.
func (c *checker) fail(msg string) {
	c.failedOps++
	if c.failedOps <= 5 {
		fmt.Fprintln(os.Stderr, "e2ebench: failed operation:", msg)
	}
}

func (c *checker) runErr(msg string) {
	c.runErrs = append(c.runErrs, msg)
	if len(c.runErrs) <= 5 {
		fmt.Fprintln(os.Stderr, "e2ebench: run check failed:", msg)
	}
}

// answerOK is the per-answer check every estimate passes: the point
// estimate lies in its confidence interval, and the relative-error target
// is met unless the run stopped on its step budget.
func answerOK(p, re, target, lo, hi float64, capped bool) error {
	if !(lo <= p && p <= hi) {
		return fmt.Errorf("p %g outside its interval [%g, %g]", p, lo, hi)
	}
	if !capped && !(re >= 0 && re <= target) {
		return fmt.Errorf("relative error %g above the target %g", re, target)
	}
	return nil
}

// grade books an answer for the per-run coverage and bias checks.
func (c *checker) grade(shape int, p, se, lo, hi, ref float64) {
	c.graded = append(c.graded, graded{shape: shape, p: p, se: se, lo: lo, hi: hi, ref: ref})
}

// envelope is what a standing answer may estimate. The engine keeps root
// trees simulated from earlier states while the normalized start value
// value/beta stays within driftTol of the current one (the documented
// survival approximation), so an answer mixes roots from any state in
// that band: it estimates a value between the reference at the band's
// two ends. At subscription time the band is one state.
type envelope struct{ lo, hi float64 }

// driftTol is the engine's default survival tolerance on value/beta.
const driftTol = 0.025

func standingEnvelope(r modelTable, value, beta float64, h int, band bool) envelope {
	if !band {
		p := r.P(value, beta, h)
		return envelope{p, p}
	}
	return envelope{r.P(value-driftTol*beta, beta, h), r.P(value+driftTol*beta, beta, h)}
}

// standingOK checks a standing query's answer against its envelope: within
// pointZ standard errors of it. A satisfied answer needs the state at or
// above the threshold.
func standingOK(a streamAnswer, e envelope, reached bool) error {
	if a.Satisfied || reached {
		if a.Satisfied != reached {
			return fmt.Errorf("satisfied %v at a state that reached the threshold: %v", a.Satisfied, reached)
		}
		return nil
	}
	if a.StdErr <= 0 || a.P < e.lo-pointZ*a.StdErr || a.P > e.hi+pointZ*a.StdErr {
		return fmt.Errorf("p %g ± %g, reference in [%g, %g]", a.P, a.StdErr, e.lo, e.hi)
	}
	return nil
}

// pairOK checks that two subscriptions to one query under different seeds
// agree: a two-sample z-test on their answers, widened by the envelope
// both may estimate anything within. Satisfied answers are trivially 1 on
// both sides.
func pairOK(a, b streamAnswer, e envelope) error {
	if a.Satisfied || b.Satisfied {
		if a.Satisfied != b.Satisfied {
			return fmt.Errorf("one answer satisfied, the other not")
		}
		return nil
	}
	if a.StdErr < 0 || b.StdErr < 0 || math.Abs(a.P-b.P) > pointZ*math.Hypot(a.StdErr, b.StdErr)+e.hi-e.lo {
		return fmt.Errorf("p %g ± %g vs %g ± %g, envelope [%g, %g]", a.P, a.StdErr, b.P, b.StdErr, e.lo, e.hi)
	}
	return nil
}

// finish runs the per-run checks over the graded answers: 95%-interval
// coverage of the reference at or above the binomial floor, and every
// shape's mean estimate within meanZ pooled standard errors of it.
func (c *checker) finish() {
	if len(c.graded) == 0 {
		return
	}
	byShape := map[int][]graded{}
	for _, g := range c.graded {
		byShape[g.shape] = append(byShape[g.shape], g)
	}
	if c.perShape {
		for s, gs := range byShape {
			checkCoverage(c, fmt.Sprintf("shape %d", s), gs, coverageAlpha/float64(len(byShape)))
		}
	} else {
		checkCoverage(c, "all shapes", c.graded, coverageAlpha)
	}
	shapes := make([]int, 0, len(byShape))
	for s := range byShape {
		shapes = append(shapes, s)
	}
	sort.Ints(shapes)
	for _, s := range shapes {
		gs := byShape[s]
		var sum, refSum, v float64
		for _, g := range gs {
			sum += g.p
			refSum += g.ref
			v += g.se * g.se
		}
		n := float64(len(gs))
		mean, want, se := sum/n, refSum/n, math.Sqrt(v)/n
		if math.Abs(mean-want) > meanZ*se {
			c.runErr(fmt.Sprintf("shape %d: mean %g ± %g over %d answers, reference %g", s, mean, se, len(gs), want))
		}
	}
}

// checkCoverage fails the run when fewer of the answers' 95% intervals
// cover the reference than a correct interval procedure would produce
// with probability alpha.
func checkCoverage(c *checker, what string, gs []graded, alpha float64) {
	if n, floor := covered(gs), coverageFloor(len(gs), 0.95, alpha); n < floor {
		c.runErr(fmt.Sprintf("%s: coverage %d of %d below the floor %d", what, n, len(gs), floor))
	}
}

// covered counts the answers whose interval covers the reference.
func covered(gs []graded) int {
	n := 0
	for _, g := range gs {
		if g.lo <= g.ref && g.ref <= g.hi {
			n++
		}
	}
	return n
}

// coverage reports the share of graded intervals covering the reference.
func (c *checker) coverage() float64 {
	return float64(covered(c.graded)) / float64(max(len(c.graded), 1))
}

// coverageFloor is the largest k with P(Binomial(n, p) < k) < alpha.
func coverageFloor(n int, p, alpha float64) int {
	cdf := 0.0
	for k := 0; k <= n; k++ {
		lg := lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
		if cdf+math.Exp(lg) >= alpha {
			return k
		}
		cdf += math.Exp(lg)
	}
	return n
}

func lgamma(n int) float64 {
	v, _ := math.Lgamma(float64(n))
	return v
}
