package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"durability/internal/stochastic"
)

// Wire forms of durserve's responses, restated with the fields the
// benchmark reads.
type queryResp struct {
	P           float64   `json:"p"`
	StdErr      float64   `json:"stderr"`
	RelErr      float64   `json:"relErr"`
	CILo        float64   `json:"ciLo"`
	CIHi        float64   `json:"ciHi"`
	Steps       int64     `json:"steps"`
	Paths       int64     `json:"paths"`
	SearchSteps int64     `json:"searchSteps"`
	PlanCached  bool      `json:"planCached"`
	Plan        []float64 `json:"plan"`
}

type batchAnswer struct {
	Beta   float64 `json:"beta"`
	P      float64 `json:"p"`
	StdErr float64 `json:"stderr"`
	RelErr float64 `json:"relErr"`
	CILo   float64 `json:"ciLo"`
	CIHi   float64 `json:"ciHi"`
}

type batchResp struct {
	Answers     []batchAnswer `json:"answers"`
	SharedSteps int64         `json:"sharedSteps"`
	SearchSteps int64         `json:"searchSteps"`
	Paths       int64         `json:"paths"`
	PlanCached  bool          `json:"planCached"`
}

type streamAnswer struct {
	Tick          int64   `json:"tick"`
	P             float64 `json:"p"`
	StdErr        float64 `json:"stderr"`
	RelErr        float64 `json:"relErr"`
	CILo          float64 `json:"ciLo"`
	CIHi          float64 `json:"ciHi"`
	Satisfied     bool    `json:"satisfied"`
	FreshSteps    int64   `json:"freshSteps"`
	SearchSteps   int64   `json:"searchSteps"`
	SurvivedRoots int64   `json:"survivedRoots"`
	DroppedRoots  int64   `json:"droppedRoots"`
	Replanned     bool    `json:"replanned"`
	Capped        bool    `json:"capped"`
}

type tickResp struct {
	Stream    string `json:"stream"`
	Tick      int64  `json:"tick"`
	Refreshes []struct {
		SubID  uint64       `json:"subId"`
		Answer streamAnswer `json:"answer"`
		Error  string       `json:"error"`
	} `json:"refreshes"`
}

type subscribeResp struct {
	SubID  uint64       `json:"subId"`
	Stream string       `json:"stream"`
	Answer streamAnswer `json:"answer"`
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// measured is what one HTTP run of a workload observed.
type measured struct {
	lat       []float64 // per-operation latency, ms
	bodyBytes int64
	answers   int64
	steps     int64
	wall      time.Duration // the timed phase
	cpu       time.Duration // server CPU over the timed phase
	rssMB     float64
	setup     []float64        // seconds, one per set-up
	feeds     map[string]*feed // replicas of durserve's live feeds
	// subscribes counts the untimed pre-step's subscriptions, which are
	// checked like operations.
	subscribes int
	chk        checker
	// per-shape latency and steps, for the summary on standard error
	shapeLat   map[int][]float64
	shapeSteps map[int]int64
}

// runHTTP runs one workload against durserve subprocesses: set-up
// setupReps times (each but the last server is killed again), then the
// timed operations on the last server, one at a time over one connection.
func runHTTP(w workload, ops []op, ref map[string]modelTable, bin, dir string) (*measured, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &measured{shapeLat: map[int][]float64{}, shapeSteps: map[int]int64{}}
	m.chk.perShape = w.name == "batch-ladder"
	var srv *server
	var err error
	switch w.name {
	case "stream-durable":
		srv, err = setupStream(m, ref, bin, dir)
	default:
		srv, err = setupOneShot(m, w, bin, dir)
	}
	if err != nil {
		return nil, err
	}
	defer srv.kill()

	pid := srv.cmd.Process.Pid
	cpu0, err := cpuTicks(pid)
	if err != nil {
		return nil, err
	}
	ticks := map[string]int64{}
	began := time.Now()
	for _, o := range ops {
		var path string
		var body []byte
		switch {
		case o.query != nil:
			path, body = "/query", mustJSON(o.query)
		case o.batch != nil:
			path, body = "/batch", mustJSON(o.batch)
		default:
			path, body = "/tick", mustJSON(map[string]string{"stream": o.tick})
		}
		status, out, d, err := srv.post(path, body)
		m.lat = append(m.lat, float64(d)/float64(time.Millisecond))
		steps0 := m.steps
		m.bodyBytes += int64(len(out))
		if err != nil || status != 200 {
			m.chk.fail(fmt.Sprintf("%s: status %d, error %v: %.200s", path, status, err, out))
			continue
		}
		switch path {
		case "/query":
			m.gradeQuery(o, out, ref)
		case "/batch":
			m.gradeBatch(o, out, ref)
		default:
			ticks[o.tick]++
			m.gradeTick(o.tick, preKillTicks+ticks[o.tick], stochastic.ScalarValue(m.feeds[o.tick].next()), out, ref)
		}
		m.shapeLat[o.shape] = append(m.shapeLat[o.shape], m.lat[len(m.lat)-1])
		m.shapeSteps[o.shape] += m.steps - steps0
	}
	m.wall = time.Since(began)
	cpu1, err := cpuTicks(pid)
	if err != nil {
		return nil, err
	}
	m.cpu = time.Duration(cpu1-cpu0) * clockTick
	if m.rssMB, err = peakRSSMB(pid); err != nil {
		return nil, err
	}
	m.chk.finish()
	for j := 0; j < len(m.shapeLat); j++ {
		l := m.shapeLat[j]
		fmt.Fprintf(os.Stderr, "e2ebench: shape %d: %d ops, p10 %.2f p25 %.2f p50 %.2f p75 %.2f p90 %.2f ms, %.0f steps/op\n",
			j, len(l), percentile(l, 0.1), percentile(l, 0.25), median(l), percentile(l, 0.75), percentile(l, 0.9), float64(m.shapeSteps[j])/float64(len(l)))
	}
	return m, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every request type marshals
	}
	return b
}

// setupOneShot starts a server and caches the workload's set-up plans,
// setupReps times; set-up time runs from process start to the last
// warm-up answer.
func setupOneShot(m *measured, w workload, bin, dir string) (*server, error) {
	var srv *server
	for rep := 0; rep < setupReps; rep++ {
		if srv != nil {
			srv.kill()
		}
		var err error
		srv, err = startServer(bin, filepath.Join(dir, fmt.Sprintf("durserve-%d.log", rep)))
		if err != nil {
			return nil, err
		}
		var reqs []any
		path := "/query"
		if w.name == "batch-ladder" {
			path = "/batch"
			for _, b := range w.setupBatches() {
				reqs = append(reqs, b)
			}
		} else {
			for _, q := range w.setupQueries() {
				reqs = append(reqs, q)
			}
		}
		for _, r := range reqs {
			status, out, _, err := srv.post(path, mustJSON(r))
			if err != nil || status != 200 {
				srv.kill()
				return nil, fmt.Errorf("set-up %s: status %d, error %v: %.200s", path, status, err, out)
			}
		}
		m.setup = append(m.setup, time.Since(srv.started).Seconds())
	}
	return srv, nil
}

// setupStream runs the untimed pre-step — a server with the standing
// queries, preKillTicks ticks on every stream, then SIGKILL — and then
// recovers a fresh copy of its data directory setupReps times. Set-up time
// runs from process start to GET /readyz answering 200, which durserve
// gates on WAL recovery.
func setupStream(m *measured, ref map[string]modelTable, bin, dir string) (*server, error) {
	pre := filepath.Join(dir, "pre")
	srv, err := startServer(bin, filepath.Join(dir, "durserve-pre.log"), "-data-dir", pre)
	if err != nil {
		return nil, err
	}
	for k, sub := range subscriptions() {
		status, out, _, err := srv.post("/subscribe", mustJSON(sub))
		if err != nil || status != 200 {
			srv.kill()
			return nil, fmt.Errorf("subscribe: status %d, error %v: %.200s", status, err, out)
		}
		var r subscribeResp
		if err := json.Unmarshal(out, &r); err != nil {
			srv.kill()
			return nil, err
		}
		if r.SubID != uint64(k+1) {
			srv.kill()
			return nil, fmt.Errorf("subscription %d got engine ID %d", k, r.SubID)
		}
		// At subscription time the live state is the model's initial
		// state, where the reference is known.
		start := serverModel.s0
		if sub.Model == "walk" {
			start = serverModel.start
		}
		m.subscribes++
		if err := standingOK(r.Answer, standingEnvelope(ref[sub.Model], start, sub.Beta, sub.Horizon, false), false); err != nil {
			m.chk.fail(fmt.Sprintf("subscribe %s beta=%g h=%d seed=%d: %v", sub.Model, sub.Beta, sub.Horizon, sub.Seed, err))
		}
	}
	m.feeds = map[string]*feed{}
	for _, name := range streams {
		if m.feeds[name], err = newFeed(name); err != nil {
			srv.kill()
			return nil, err
		}
	}
	for t := 0; t < preKillTicks; t++ {
		for _, name := range streams {
			m.feeds[name].next()
			status, out, _, err := srv.post("/tick", mustJSON(map[string]string{"stream": name}))
			if err != nil || status != 200 {
				srv.kill()
				return nil, fmt.Errorf("pre-step tick: status %d, error %v: %.200s", status, err, out)
			}
		}
	}
	srv.kill()

	srv = nil
	for rep := 0; rep < setupReps; rep++ {
		if srv != nil {
			srv.kill()
		}
		data := filepath.Join(dir, fmt.Sprintf("recovered-%d", rep))
		if err := copyDir(pre, data); err != nil {
			return nil, err
		}
		srv, err = startServer(bin, filepath.Join(dir, fmt.Sprintf("durserve-%d.log", rep)), "-data-dir", data)
		if err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(srv.started).Seconds())
		var st struct {
			Subscriptions int `json:"subscriptions"`
		}
		if err := srv.getJSON("/streams", &st); err != nil {
			srv.kill()
			return nil, err
		}
		if want := len(subscriptions()); st.Subscriptions != want {
			m.chk.fail(fmt.Sprintf("recovery %d: %d subscriptions, want %d", rep, st.Subscriptions, want))
		}
	}
	return srv, nil
}

// gradeQuery checks one /query answer and books its cost.
func (m *measured) gradeQuery(o op, body []byte, ref map[string]modelTable) {
	var r queryResp
	if err := json.Unmarshal(body, &r); err != nil {
		m.chk.fail(fmt.Sprintf("/query: %v", err))
		return
	}
	m.answers++
	m.steps += r.Steps
	q := o.query
	want := ref[q.Model].P(startValue(q.Model), q.Beta, q.Horizon)
	m.chk.grade(o.shape, r.P, r.StdErr, r.CILo, r.CIHi, want)
	capped := r.Steps-r.SearchSteps >= defaultMaxBudget
	if err := answerOK(r.P, r.RelErr, relErr, r.CILo, r.CIHi, capped); err != nil {
		m.chk.fail(fmt.Sprintf("/query %s beta=%g h=%d seed=%d: %v", q.Model, q.Beta, q.Horizon, q.Seed, err))
	}
}

// gradeBatch checks one /batch answer: one answer per requested threshold,
// in request order, each checked like a query.
func (m *measured) gradeBatch(o op, body []byte, ref map[string]modelTable) {
	var r batchResp
	if err := json.Unmarshal(body, &r); err != nil {
		m.chk.fail(fmt.Sprintf("/batch: %v", err))
		return
	}
	b := o.batch
	if len(r.Answers) != len(b.Betas) {
		m.chk.fail(fmt.Sprintf("/batch: %d answers for %d thresholds", len(r.Answers), len(b.Betas)))
		return
	}
	capped := r.SharedSteps >= defaultMaxBudget
	for i, a := range r.Answers {
		if a.Beta != b.Betas[i] {
			m.chk.fail(fmt.Sprintf("/batch: answer %d is for beta %g, want %g", i, a.Beta, b.Betas[i]))
			return
		}
		if err := answerOK(a.P, a.RelErr, relErr, a.CILo, a.CIHi, capped); err != nil {
			m.chk.fail(fmt.Sprintf("/batch %s beta=%g h=%d: %v", b.Model, a.Beta, b.Horizon, err))
			return
		}
	}
	m.answers += int64(len(r.Answers))
	m.steps += r.SharedSteps + r.SearchSteps
	for i, a := range r.Answers {
		want := ref[b.Model].P(startValue(b.Model), a.Beta, b.Horizon)
		m.chk.grade(o.shape*len(b.Betas)+i, a.P, a.StdErr, a.CILo, a.CIHi, want)
	}
}

// gradeTick checks one /tick answer: the stream's tick number carries on
// from the killed server's, every standing query refreshed, each answer
// passes the per-answer checks and lies in its reference envelope at the
// feed's state, and the two subscriptions of each shape agree.
func (m *measured) gradeTick(name string, wantTick int64, value float64, body []byte, ref map[string]modelTable) {
	var r tickResp
	if err := json.Unmarshal(body, &r); err != nil {
		m.chk.fail(fmt.Sprintf("/tick: %v", err))
		return
	}
	for _, f := range r.Refreshes {
		m.steps += f.Answer.FreshSteps + f.Answer.SearchSteps
	}
	m.answers += int64(len(r.Refreshes))
	if err := tickOK(name, wantTick, value, r, ref); err != nil {
		m.chk.fail(fmt.Sprintf("/tick %s tick %d: %v", name, r.Tick, err))
	}
}

func tickOK(name string, wantTick int64, value float64, r tickResp, ref map[string]modelTable) error {
	if r.Tick != wantTick {
		return fmt.Errorf("tick %d, want %d", r.Tick, wantTick)
	}
	subs := subscriptions()
	want := 0
	for _, s := range subs {
		if s.Model == name {
			want++
		}
	}
	if len(r.Refreshes) != want {
		return fmt.Errorf("%d refreshes, want %d", len(r.Refreshes), want)
	}
	bySub := map[uint64]streamAnswer{}
	for _, f := range r.Refreshes {
		a := f.Answer
		if f.Error != "" || f.SubID < 1 || int(f.SubID) > len(subs) {
			return fmt.Errorf("sub %d: %s", f.SubID, f.Error)
		}
		s := subs[f.SubID-1]
		if !a.Satisfied {
			if err := answerOK(a.P, a.RelErr, relErr, a.CILo, a.CIHi, a.Capped); err != nil {
				return fmt.Errorf("sub %d: %v", f.SubID, err)
			}
		}
		if err := standingOK(a, standingEnvelope(ref[name], value, s.Beta, s.Horizon, true), value >= s.Beta); err != nil {
			return fmt.Errorf("sub %d (beta %g, h %d) at state %g: %v", f.SubID, s.Beta, s.Horizon, value, err)
		}
		bySub[f.SubID] = a
	}
	n := uint64(len(subShapes))
	for id := uint64(1); id <= n; id++ {
		a, ok := bySub[id]
		if !ok {
			continue // the other stream's subscription
		}
		s := subs[id-1]
		if err := pairOK(a, bySub[id+n], standingEnvelope(ref[name], value, s.Beta, s.Horizon, true)); err != nil {
			return fmt.Errorf("subs %d/%d: %v", id, id+n, err)
		}
	}
	return nil
}

// startValue is the observed value of a model's initial state.
func startValue(model string) float64 {
	if model == "gbm" {
		return serverModel.s0
	}
	return serverModel.start
}

// defaultMaxBudget is durserve's per-query step cap; an answer that used
// it up stopped on the budget, not on its quality target.
const defaultMaxBudget = 200_000_000

// percentile returns the q-quantile of xs by linear interpolation between
// order statistics.
func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
