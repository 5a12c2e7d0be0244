package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"durability/internal/serve"
)

// relErr is the relative-error target of every query, rung and standing
// query the workloads send.
const relErr = 0.1

// shape is one query shape of a rotation: a model, one threshold (or a
// ladder of them) and a horizon.
type shape struct {
	Model   string
	Beta    float64
	Betas   []float64
	Horizon int
}

// grid returns one shape per threshold of ladder(lo, step, n) at the
// given horizon.
func grid(model string, lo, step float64, n, horizon int) []shape {
	var out []shape
	for _, b := range ladder(lo, step, n) {
		out = append(out, shape{Model: model, Beta: b, Horizon: horizon})
	}
	return out
}

// ladder returns n evenly spaced thresholds from lo in steps of step,
// rounded to 1e-9 so that every run sends bit-identical values.
func ladder(lo, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Round((lo+step*float64(i))*1e9) / 1e9
	}
	return out
}

// warmShapes is the query-warm rotation: eight thresholds at each of two
// horizons on each model, every one's plan cached at set-up. The
// thresholds keep answers between about 1% and 50%, and are dense enough
// that the answers' costs form a continuum: a percentile of a mix of a few
// far-apart costs would jump between them from run to run.
var warmShapes = slices.Concat(
	grid("gbm", 110, 4, 8, 250), grid("gbm", 104, 3, 8, 150),
	grid("walk", 0.1, 0.02, 8, 100), grid("walk", 0.06, 0.01, 8, 60),
)

// coldShapes is the query-cold rotation, coldPerModel thresholds on each
// model; see coldHorizon.
var coldShapes = slices.Concat(grid("gbm", 110, 4, coldPerModel, 250), grid("walk", 0.1, 0.02, coldPerModel, 100))

const coldPerModel = 8

// coldHorizon is the horizon of slot j in round r of query-cold: a
// different one for every request of a model, so every request's plan key
// is new. Set-up caches the shapes at horizon base-1, a key no timed
// request uses.
func coldHorizon(s shape, r, j int) int { return s.Horizon + r*coldPerModel + j%coldPerModel }

// ladderShapes is the batch-ladder rotation: eight fixed 10-threshold
// ladders whose covering plans are cached at set-up.
var ladderShapes = []shape{
	{Model: "gbm", Betas: ladder(112, 2, 10), Horizon: 250},
	{Model: "gbm", Betas: ladder(108, 2, 10), Horizon: 200},
	{Model: "gbm", Betas: ladder(104, 2, 10), Horizon: 150},
	{Model: "gbm", Betas: ladder(102, 2, 10), Horizon: 100},
	{Model: "walk", Betas: ladder(0.1, 0.02, 10), Horizon: 120},
	{Model: "walk", Betas: ladder(0.08, 0.02, 10), Horizon: 100},
	{Model: "walk", Betas: ladder(0.06, 0.01, 10), Horizon: 80},
	{Model: "walk", Betas: ladder(0.04, 0.01, 10), Horizon: 60},
}

// subShapes are the standing queries of stream-durable; each is subscribed
// twice, under two seeds, so the two answers can be compared at every
// tick. The gbm feed starts at s0 = 100 and the walk feed at 0.
var subShapes = func() []shape {
	var out []shape
	for _, h := range []int{60, 120} {
		for _, b := range []float64{103, 106, 110, 115} {
			out = append(out, shape{Model: "gbm", Beta: b, Horizon: h})
		}
	}
	for _, h := range []int{60, 120} {
		for _, b := range []float64{0.03, 0.06, 0.1, 0.15} {
			out = append(out, shape{Model: "walk", Beta: b, Horizon: h})
		}
	}
	return out
}()

// stream-durable runs preKillTicks ticks of each stream before the kill,
// and subscribes every shape under both seeds.
const (
	preKillTicks = 40
	subSeedA     = 11
	subSeedB     = 29
)

// streams are stream-durable's live feeds, one per model; a round of its
// timed phase ticks each once.
var streams = []string{"gbm", "walk"}

// op is one timed operation.
type op struct {
	shape int // index into the workload's rotation
	query *serve.Request
	batch *serve.BatchRequest
	tick  string // stream name for POST /tick
}

// workload fixes a workload's rotation, how many rounds of it a run sends
// for a given run length, and the set-up traffic.
type workload struct {
	name   string
	shapes []shape
	// roundSeconds is the measured time of one round on a 2-core host;
	// a run sends enough whole rounds to fill its --seconds.
	roundSeconds float64
}

var workloads = []workload{
	{name: "query-warm", shapes: warmShapes, roundSeconds: 0.31},
	{name: "query-cold", shapes: coldShapes, roundSeconds: 0.77},
	{name: "batch-ladder", shapes: ladderShapes, roundSeconds: 0.152},
	{name: "stream-durable", shapes: subShapes, roundSeconds: 0.07},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// slots is the number of operations in one round.
func (w workload) slots() int {
	if w.name == "stream-durable" {
		return len(streams)
	}
	return len(w.shapes)
}

// rounds is the number of whole rounds a run of the given length sends:
// enough to fill it on the reference host, and never fewer than it takes
// for 100 operations, so that p90 has ten samples beyond it.
func (w workload) rounds(seconds float64) int {
	r := int(math.Round(seconds / w.roundSeconds))
	return max(r, (100+w.slots()-1)/w.slots())
}

// requestSeed is the sampling seed of the request in slot j of round r.
// It does not depend on the run's --seed: every run sends the same
// multiset of requests, so every run does the same simulation work.
func requestSeed(r, j, n int) uint64 { return uint64(1 + r*n + j) }

// ops generates the timed operations: whole rounds of the rotation, each
// round in an order drawn from the run's seed.
func (w workload) ops(seed uint64, rounds int) []op {
	rnd := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	var out []op
	for r := 0; r < rounds; r++ {
		for _, j := range rnd.Perm(w.slots()) {
			out = append(out, w.op(r, j))
		}
	}
	return out
}

// op builds the request in slot j of round r.
func (w workload) op(r, j int) op {
	n := len(w.shapes)
	switch w.name {
	case "query-warm":
		s := w.shapes[j]
		return op{shape: j, query: &serve.Request{Model: s.Model, Beta: s.Beta, Horizon: s.Horizon, RelErr: relErr, Seed: requestSeed(r, j, n)}}
	case "query-cold":
		s := w.shapes[j]
		return op{shape: j, query: &serve.Request{Model: s.Model, Beta: s.Beta, Horizon: coldHorizon(s, r, j), RelErr: relErr, Seed: requestSeed(r, j, n)}}
	case "batch-ladder":
		s := w.shapes[j]
		return op{shape: j, batch: &serve.BatchRequest{Model: s.Model, Betas: s.Betas, Horizon: s.Horizon, RelErr: relErr, Seed: requestSeed(r, j, n)}}
	default:
		return op{shape: j, tick: streams[j]}
	}
}

// setupBudget caps the sampling of set-up requests at one round: set-up
// exists to run the plan searches, and their answers are not used.
const setupBudget = 1

// setupQueries and setupBatches are the set-up traffic of the one-shot
// workloads: one request per shape, which caches its plan.
func (w workload) setupQueries() []serve.Request {
	var out []serve.Request
	for j, s := range w.shapes {
		h := s.Horizon
		if w.name == "query-cold" {
			h-- // a key no timed request uses
		}
		out = append(out, serve.Request{Model: s.Model, Beta: s.Beta, Horizon: h, RelErr: relErr, Budget: setupBudget, Seed: uint64(1_000_000 + j)})
	}
	return out
}

func (w workload) setupBatches() []serve.BatchRequest {
	var out []serve.BatchRequest
	for j, s := range w.shapes {
		out = append(out, serve.BatchRequest{Model: s.Model, Betas: s.Betas, Horizon: s.Horizon, RelErr: relErr, Budget: setupBudget, Seed: uint64(1_000_000 + j)})
	}
	return out
}

// subscription is the /subscribe body of durserve.
type subscription struct {
	Model   string  `json:"model"`
	Beta    float64 `json:"beta"`
	Horizon int     `json:"horizon"`
	RelErr  float64 `json:"re"`
	Seed    uint64  `json:"seed"`
}

// subscriptions lists the standing queries in subscription order: every
// shape under seed A, then every shape under seed B. Subscription k has
// engine ID k+1, and its partner is k ± len(subShapes).
func subscriptions() []subscription {
	var out []subscription
	for _, seed := range []uint64{subSeedA, subSeedB} {
		for _, s := range subShapes {
			out = append(out, subscription{Model: s.Model, Beta: s.Beta, Horizon: s.Horizon, RelErr: relErr, Seed: seed})
		}
	}
	return out
}

// maxHorizon is the longest horizon a run of the workload asks about.
func (w workload) maxHorizon(rounds int) int {
	h := 0
	for _, s := range w.shapes {
		h = max(h, s.Horizon)
	}
	if w.name == "query-cold" {
		h += rounds * coldPerModel
	}
	return h
}
