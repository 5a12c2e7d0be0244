package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"durability/internal/core"
	"durability/internal/exec"
	"durability/internal/mc"
	"durability/internal/opt"
	"durability/internal/persist"
	"durability/internal/planstats"
	"durability/internal/rng"
	"durability/internal/serve"
	"durability/internal/stochastic"
	"durability/internal/stream"
	"durability/internal/telemetry"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one operation share Req; Parent indexes the span
// that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// spanLog keeps every span in memory; write saves them when the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) begin(name string, req, parent int) int {
	l.spans = append(l.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(l.t0))})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) { l.spans[i].End = int64(time.Since(l.t0)) }

// ms is the span's duration in milliseconds.
func (l *spanLog) ms(i int) float64 { return float64(l.spans[i].End-l.spans[i].Start) / 1e6 }

// selfMs is the span's duration minus the time its child spans cover.
func (l *spanLog) selfMs(i int) float64 {
	d := l.ms(i)
	for j := i + 1; j < len(l.spans); j++ {
		if l.spans[j].Parent == i {
			d -= l.ms(j)
		}
	}
	return d
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// traced is what the in-process replay observed.
type traced struct {
	spans     *spanLog
	attempted int
	answers   int64
	chk       checker

	call, plan, search, kernel, estimator, batchWait []float64 // per-op ms
	searchSteps, kernelSteps                         int64
	kernelTotal, callTotal, estimatorTotal           float64
	hits, resolutions                                int
	mallocs                                          uint64

	// stream-durable
	update, refresh, apply, appendUs, checkpoint []float64
	replayMs                                     float64 // WAL recovery minus the Apply calls inside it
	freshSteps, survived, dropped, replans       int64
	ticks                                        int
	walBytes                                     int64
}

// spanCost times recording one span, begin and end, into a fresh log: the
// tracing overhead an operation pays per span.
func spanCost() float64 {
	l := &spanLog{t0: time.Now()}
	const n = 100_000
	began := time.Now()
	for i := 0; i < n; i++ {
		l.end(l.begin("x", i, -1))
	}
	return float64(time.Since(began).Nanoseconds()) / n
}

// newServer configures serve.Server as durserve does with its default
// flags: a plan-stats ledger and a tracer attached.
func newServer() *serve.Server {
	tracer := telemetry.NewTracer(func(string) *telemetry.Histogram {
		return telemetry.NewHistogram(telemetry.DurationBuckets)
	})
	return serve.NewServer(registry(serverModel), serve.Config{
		QueueDepth:     64,
		SimWorkers:     1,
		MaxHorizon:     1_000_000,
		DefaultRelErr:  0.10,
		Seed:           1,
		CoalesceWindow: 2 * time.Millisecond,
		Tracer:         tracer,
		Ledger:         planstats.NewLedger(),
	})
}

// registry is durserve's registry restricted to the models the workloads
// query.
func registry(p modelParams) serve.Registry {
	return serve.Registry{
		"walk": func() (stochastic.Process, map[string]stochastic.Observer, error) {
			return &stochastic.RandomWalk{Start: p.start, Drift: p.drift, Sigma: p.sigma},
				map[string]stochastic.Observer{"value": stochastic.ScalarValue}, nil
		},
		"gbm": func() (stochastic.Process, map[string]stochastic.Observer, error) {
			return &stochastic.GBM{S0: p.s0, Mu: p.drift, Sigma: p.sigma},
				map[string]stochastic.Observer{"value": stochastic.ScalarValue}, nil
		},
	}
}

// runTraced replays the workload's operations in-process. Each operation
// first goes through the same call durserve makes for it (Server.Do,
// Server.DoBatch, or the engine update of a tick), then through the
// layers' functions one at a time on a second runner: plan resolution,
// the plan search itself, the sampling call on the resolved plan and a
// kernel replay of the answer's roots.
func runTraced(w workload, ops []op, ref map[string]modelTable, dir string) (*traced, error) {
	t := &traced{spans: &spanLog{t0: time.Now()}}
	if w.name == "stream-durable" {
		return t, t.stream(ops, ref, dir)
	}
	srv := newServer()
	defer srv.Close()
	// The second runner holds its own plan cache, warmed like the server's,
	// so the layer calls resolve plans exactly as the serving call did.
	runner := &serve.Runner{Cache: serve.NewPlanCache(0)}
	ctx := context.Background()
	models := map[string]*serve.Spec{}
	for name, f := range registry(serverModel) {
		proc, obs, err := f()
		if err != nil {
			return nil, err
		}
		models[name] = &serve.Spec{Proc: proc, Obs: obs["value"], ModelID: name, ObserverID: "value"}
	}

	if w.name == "batch-ladder" {
		for _, b := range w.setupBatches() {
			if _, err := srv.DoBatch(ctx, b); err != nil {
				return nil, err
			}
			if _, _, err := runner.RunBatch(ctx, batchSpec(models[b.Model], b)); err != nil {
				return nil, err
			}
		}
	} else {
		for _, q := range w.setupQueries() {
			if _, err := srv.Do(ctx, q); err != nil {
				return nil, err
			}
			s := querySpec(models[q.Model], q)
			if _, _, err := runner.ResolvePlan(ctx, &s); err != nil {
				return nil, err
			}
		}
	}

	var ms0, ms1 runtime.MemStats
	for i, o := range ops {
		t.attempted++
		root := t.spans.begin("op", i, -1)
		runtime.ReadMemStats(&ms0)
		c := t.spans.begin("serve.call", i, root)
		var qr serve.Response
		var br serve.BatchResponse
		var err error
		if o.query != nil {
			qr, err = srv.Do(ctx, *o.query)
		} else {
			br, err = srv.DoBatch(ctx, *o.batch)
		}
		t.spans.end(c)
		runtime.ReadMemStats(&ms1)
		t.spans.end(root)
		t.mallocs += ms1.Mallocs - ms0.Mallocs
		if err != nil {
			t.chk.fail(fmt.Sprintf("in-process op %d: %v", i, err))
			continue
		}
		t.call = append(t.call, t.spans.ms(c))
		t.callTotal += t.spans.ms(c)
		if o.query != nil {
			t.answers++
			err = t.replayQuery(ctx, runner, models[o.query.Model], *o.query, qr, i)
		} else {
			t.answers += int64(len(o.batch.Betas))
			err = t.replayBatch(ctx, runner, models[o.batch.Model], *o.batch, br, i, t.spans.ms(c))
		}
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// querySpec resolves a request as serve.Server does for its defaults.
func querySpec(m *serve.Spec, q serve.Request) serve.Spec {
	return serve.Spec{
		Proc: m.Proc, Obs: m.Obs, ModelID: m.ModelID, ObserverID: m.ObserverID,
		Beta: q.Beta, Horizon: q.Horizon, Method: serve.GMLSS, PlanMode: serve.PlanAuto,
		Ratio: 3, Seed: q.Seed, SimWorkers: 1,
		Stop: mc.Any{mc.RETarget{Target: q.RelErr}, mc.Budget{Steps: budget(q.Budget)}},
	}
}

// budget is the step budget serve.Server applies to a request's budget.
func budget(b int64) int64 {
	if b > 0 && b < defaultMaxBudget {
		return b
	}
	return defaultMaxBudget
}

func batchSpec(m *serve.Spec, b serve.BatchRequest) serve.BatchSpec {
	return serve.BatchSpec{
		Proc: m.Proc, Obs: m.Obs, ModelID: m.ModelID, ObserverID: m.ObserverID,
		Betas: b.Betas, Horizon: b.Horizon, Ratio: 3, Seed: b.Seed, SimWorkers: 1,
		Stop: mc.Any{mc.RETarget{Target: b.RelErr}, mc.Budget{Steps: budget(b.Budget)}},
	}
}

// planSeed restates serve's key-derived search seed, so the benchmark can
// run the search a cache miss runs; the replay checks that it finds the
// plan, and spends the steps, the serving call reported.
func planSeed(k serve.PlanKey) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%d\x00%d\x00%s\x00%d\x00%s", k.Model, k.Observer, k.BetaBucket, k.Horizon, k.Ratio, k.Search, k.Start, k.Set)
	if s := h.Sum64(); s != 0 {
		return s
	}
	return 1
}

// kernelGroup is the bootstrap group size of kernel replays; grouping
// changes no step.
const kernelGroup = 16

func (t *traced) replayQuery(ctx context.Context, runner *serve.Runner, m *serve.Spec, q serve.Request, served serve.Response, i int) error {
	s := querySpec(m, q)
	root := t.spans.begin("replay", i, -1)
	defer t.spans.end(root)

	p := t.spans.begin("serve.plan", i, root)
	plan, meta, err := runner.ResolvePlan(ctx, &s)
	t.spans.end(p)
	if err != nil {
		return err
	}
	t.plan = append(t.plan, t.spans.ms(p))
	t.resolutions++
	if served.PlanCached {
		t.hits++
	}
	if meta.SearchSteps > 0 {
		key, _ := runner.PlanKeyFor(s)
		sp := t.spans.begin("opt.search", i, root)
		g, err := opt.Greedy(ctx, &opt.Problem{
			Proc:    s.Proc,
			Query:   core.Query{Value: core.ThresholdValue(s.Obs, runner.Cache.RepresentativeBeta(s.Beta)), Horizon: s.Horizon},
			Ratio:   s.Ratio,
			Seed:    planSeed(key),
			Workers: s.SimWorkers,
		}, opt.GreedyOptions{})
		t.spans.end(sp)
		if err != nil {
			return err
		}
		if g.SearchSteps != meta.SearchSteps || !slices.Equal(g.Plan.Boundaries, plan.Boundaries) {
			t.chk.runErr(fmt.Sprintf("op %d: search replay found %v in %d steps, resolution %v in %d", i, g.Plan.Boundaries, g.SearchSteps, plan.Boundaries, meta.SearchSteps))
		}
		t.search = append(t.search, t.spans.ms(sp))
		t.searchSteps += g.SearchSteps
	}

	fixed := s
	fixed.PlanMode, fixed.Plan = serve.PlanFixed, plan
	sa := t.spans.begin("exec.sample", i, root)
	res, _, err := runner.Run(ctx, fixed)
	t.spans.end(sa)
	if err != nil {
		return err
	}
	if res.P != served.P || res.Steps != served.Steps-served.SearchSteps {
		t.chk.runErr(fmt.Sprintf("op %d: sampling replay p=%g steps=%d, served p=%g steps=%d", i, res.P, res.Steps, served.P, served.Steps-served.SearchSteps))
	}

	k := t.spans.begin("core.kernel", i, root)
	sr, err := exec.Local{}.RunRoots(ctx, exec.Task{
		Proc: s.Proc, Obs: s.Obs, Model: s.ModelID, Observer: s.ObserverID,
		Beta: s.Beta, Horizon: s.Horizon, Boundaries: plan.Boundaries,
		Ratio: s.Ratio, Seed: s.Seed, SimWorkers: s.SimWorkers,
	}, 0, res.Paths, kernelGroup)
	t.spans.end(k)
	if err != nil {
		return err
	}
	t.kernelStep(i, sr.Steps, res.Steps, t.spans.ms(k), t.spans.ms(sa))
	return nil
}

func (t *traced) replayBatch(ctx context.Context, runner *serve.Runner, m *serve.Spec, b serve.BatchRequest, served serve.BatchResponse, i int, callMs float64) error {
	s := batchSpec(m, b)
	root := t.spans.begin("replay", i, -1)
	defer t.spans.end(root)
	t.resolutions++
	if served.PlanCached {
		t.hits++
	}

	sa := t.spans.begin("serve.runbatch", i, root)
	results, meta, err := runner.RunBatch(ctx, s)
	t.spans.end(sa)
	if err != nil {
		return err
	}
	t.batchWait = append(t.batchWait, callMs-t.spans.ms(sa))
	for j, r := range results {
		if r.P != served.Answers[j].P || meta.SharedSteps != served.SharedSteps {
			t.chk.runErr(fmt.Sprintf("op %d: batch replay rung %d p=%g steps=%d, served p=%g steps=%d", i, j, r.P, meta.SharedSteps, served.Answers[j].P, served.SharedSteps))
			break
		}
	}

	k := t.spans.begin("core.kernel", i, root)
	sr, err := exec.Local{}.RunRoots(ctx, exec.Task{
		Proc: s.Proc, Obs: s.Obs, Model: s.ModelID, Observer: s.ObserverID,
		Beta: slices.Max(s.Betas), Horizon: s.Horizon, Boundaries: meta.Plan.Boundaries,
		Ratio: s.Ratio, Ratios: meta.Plan.Ratios, Seed: s.Seed, SimWorkers: s.SimWorkers,
	}, 0, results[0].Paths, kernelGroup)
	t.spans.end(k)
	if err != nil {
		return err
	}
	t.kernelStep(i, sr.Steps, meta.SharedSteps, t.spans.ms(k), t.spans.ms(sa))
	return nil
}

// kernelStep books one kernel replay against the sampling call it
// replays. The replay must report exactly the answer's sampling steps, so
// that kernel and estimator time split identical work.
func (t *traced) kernelStep(i int, kernelSteps, sampleSteps int64, kernelMs, sampleMs float64) {
	if kernelSteps != sampleSteps {
		t.chk.runErr(fmt.Sprintf("op %d: kernel replay took %d steps, the answer %d", i, kernelSteps, sampleSteps))
	}
	t.kernel = append(t.kernel, kernelMs)
	t.kernelSteps += kernelSteps
	t.kernelTotal += kernelMs
	t.estimator = append(t.estimator, sampleMs-kernelMs)
	t.estimatorTotal += sampleMs - kernelMs
}

// journal wraps the engine's WAL journal in persist.append spans.
type journal struct {
	t     *traced
	store *persist.Store
	req   int
	span  int // the span the engine call runs in
}

func (j *journal) Record(ev stream.JournalEvent) (int64, error) {
	s := j.t.spans.begin("persist.append", j.req, j.span)
	lsn, err := j.store.Append(ev)
	j.t.spans.end(s)
	if j.span >= 0 { // a timed tick's append
		j.t.appendUs = append(j.t.appendUs, 1000*j.t.spans.ms(s))
	}
	return lsn, err
}

// feed reproduces durserve's live feed for one stream: the model's own
// dynamics from its initial state, driven by the substream durserve
// derives from the server seed and the stream name.
type feed struct {
	proc  stochastic.Process
	state stochastic.State
	src   *rng.Source
	steps int
}

func newFeed(model string) (*feed, error) {
	proc, _, err := registry(serverModel)[model]()
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write([]byte(model))
	return &feed{proc: proc, state: proc.Initial(), src: rng.NewStream(1, 1<<60|h.Sum64()>>4)}, nil
}

func (f *feed) next() stochastic.State {
	f.steps++
	f.proc.Step(f.state, f.steps, f.src)
	return f.state
}

// stream replays stream-durable in-process: the standing queries on a
// stream.ShardedEngine journaling to a persist.Store, preKillTicks ticks,
// an abandoned store recovered into a fresh engine, and the timed ticks.
// The benchmark publishes the states itself and checks every answer
// against the reference at the state it published.
func (t *traced) stream(ops []op, ref map[string]modelTable, dir string) error {
	ctx := context.Background()
	resolve := func(_, model string) (stochastic.Process, map[string]stochastic.Observer, error) {
		return registry(serverModel)[model]()
	}
	feeds := map[string]*feed{}
	for _, name := range streams {
		f, err := newFeed(name)
		if err != nil {
			return err
		}
		feeds[name] = f
	}

	pre := filepath.Join(dir, "pre")
	store, err := persist.Open(pre, persist.Options{})
	if err != nil {
		return err
	}
	if _, _, err := store.Recover(&stream.EngineSnapshot{}, nil, nil); err != nil {
		return err
	}
	srv := newServer()
	defer srv.Close()
	eng := stream.NewSharded(stream.Config{Runner: srv.Runner(), Metrics: telemetry.NewEngineMetrics()}, 1, 0)
	eng.Shard(0).SetJournal(&journal{t: t, store: store, req: -1, span: -1})
	for _, name := range streams {
		f := feeds[name]
		if err := eng.RegisterModel(name, name, f.proc, f.proc.Initial()); err != nil {
			return err
		}
	}
	for k, sub := range subscriptions() {
		_, obs, _ := resolve("", sub.Model)
		s, err := eng.Subscribe(ctx, stream.SubSpec{
			Stream: sub.Model, Obs: obs["value"], ObserverID: "value",
			Beta: sub.Beta, Horizon: sub.Horizon, Seed: sub.Seed,
			Stop: mc.Any{mc.RETarget{Target: sub.RelErr}, mc.Budget{Steps: defaultMaxBudget}},
		})
		if err != nil {
			return err
		}
		t.attempted++
		if err := standingOK(wireAnswer(s.Answer()), standingEnvelope(ref[sub.Model], startValue(sub.Model), sub.Beta, sub.Horizon, false), false); err != nil {
			t.chk.fail(fmt.Sprintf("in-process subscribe %d: %v", k, err))
		}
	}
	for i := 0; i < preKillTicks; i++ {
		for _, name := range streams {
			if _, err := eng.Update(ctx, name, feeds[name].next()); err != nil {
				return err
			}
		}
	}
	// Copy the store as a crash leaves it, with no checkpoint and no
	// close, and recover the copy; the original is only released.
	rec := filepath.Join(dir, "recovered")
	if err := copyDir(pre, rec); err != nil {
		return err
	}
	_ = store.Close() // nothing reads the original again

	srv2 := newServer()
	defer srv2.Close()
	eng = stream.NewSharded(stream.Config{Runner: srv2.Runner(), Metrics: telemetry.NewEngineMetrics()}, 1, 0)
	if store, err = persist.Open(rec, persist.Options{}); err != nil {
		return err
	}
	defer store.Close()
	shard := eng.Shard(0)
	var snap stream.EngineSnapshot
	r := t.spans.begin("persist.recover", -1, -1)
	_, _, err = store.Recover(&snap,
		func(found bool) error {
			if found {
				return shard.Restore(snap, resolve)
			}
			return nil
		},
		func(lsn int64, ev any) error {
			jev, ok := ev.(stream.JournalEvent)
			if !ok {
				return fmt.Errorf("WAL carries %T", ev)
			}
			a := t.spans.begin("stream.apply", -1, r)
			err := shard.Apply(ctx, lsn, jev, resolve)
			t.spans.end(a)
			t.apply = append(t.apply, t.spans.ms(a))
			return err
		})
	t.spans.end(r)
	if err != nil {
		return err
	}
	t.replayMs = t.spans.selfMs(r)
	eng.SyncNextSub()
	if n := len(eng.Subscriptions()); n != len(subscriptions()) {
		t.chk.runErr(fmt.Sprintf("in-process recovery: %d subscriptions, want %d", n, len(subscriptions())))
	}
	jr := &journal{t: t, store: store, req: -1, span: -1}
	shard.SetJournal(jr)
	if err := t.checkpointSpan(store, shard); err != nil {
		return err
	}
	wal0 := walBytes(rec)

	var ms0, ms1 runtime.MemStats
	for i, o := range ops {
		t.attempted++
		t.ticks++
		state := feeds[o.tick].next()
		u := t.spans.begin("stream.update", i, -1)
		jr.req, jr.span = i, u
		runtime.ReadMemStats(&ms0)
		refreshes, err := eng.Update(ctx, o.tick, state)
		runtime.ReadMemStats(&ms1)
		t.spans.end(u)
		t.mallocs += ms1.Mallocs - ms0.Mallocs
		if err != nil {
			t.chk.fail(fmt.Sprintf("in-process tick %d: %v", i, err))
			continue
		}
		t.update = append(t.update, t.spans.ms(u))
		t.refresh = append(t.refresh, t.spans.ms(u)/float64(len(refreshes)))
		t.answers += int64(len(refreshes))
		if tick, _ := eng.Tick(o.tick); tick != int64(feeds[o.tick].steps) {
			t.chk.fail(fmt.Sprintf("in-process tick %d: stream %s at tick %d", i, o.tick, tick))
			continue
		}
		value := stochastic.ScalarValue(state)
		var bad error
		for _, rf := range refreshes {
			a := rf.Answer
			t.freshSteps += a.FreshSteps
			t.survived += a.SurvivedRoots
			t.dropped += a.DroppedRoots
			if a.Replanned {
				t.replans++
				t.resolutions++
				if a.PlanCached {
					t.hits++
				}
			}
			sub, _ := eng.Subscription(rf.SubID)
			spec := sub.Spec()
			if err := standingOK(wireAnswer(a), standingEnvelope(ref[o.tick], value, spec.Beta, spec.Horizon, true), value >= spec.Beta); err != nil && bad == nil {
				bad = fmt.Errorf("sub %d: %v", rf.SubID, err)
			}
		}
		if bad != nil {
			t.chk.fail(fmt.Sprintf("in-process tick %d (%s): %v", i, o.tick, bad))
		}
	}
	t.walBytes = walBytes(rec) - wal0
	return t.checkpointSpan(store, shard)
}

func (t *traced) checkpointSpan(store *persist.Store, e *stream.Engine) error {
	c := t.spans.begin("persist.checkpoint", -1, -1)
	err := store.Checkpoint(func() (any, error) { return e.Snapshot(), nil })
	t.spans.end(c)
	t.checkpoint = append(t.checkpoint, t.spans.ms(c))
	return err
}

// walBytes sums the sizes of a store directory's WAL segments.
func walBytes(dir string) int64 {
	matches, _ := filepath.Glob(filepath.Join(dir, "wal-*"))
	var n int64
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// wireAnswer restates an engine answer in the form durserve sends.
func wireAnswer(a stream.Answer) streamAnswer {
	ci := a.Result.CI(0.95)
	finite := func(v float64) float64 { // durserve's wire form of "no estimate yet"
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return -1
		}
		return v
	}
	return streamAnswer{
		Tick: a.Tick, P: a.Result.P, StdErr: finite(a.Result.StdErr()), RelErr: finite(a.Result.RelErr()),
		CILo: ci.Lo, CIHi: ci.Hi, Satisfied: a.Satisfied,
		FreshSteps: a.FreshSteps, SearchSteps: a.SearchSteps,
		SurvivedRoots: a.SurvivedRoots, DroppedRoots: a.DroppedRoots,
		Replanned: a.Replanned, Capped: a.Capped,
	}
}

// metrics are the per-layer figures of a traced run; m is the HTTP run of
// the same operations.
func (t *traced) metrics(m *measured) map[string]metric {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	// The same operations ran over HTTP and in-process, in the same order;
	// the overhead is the median of their paired differences.
	call := t.call
	if t.update != nil {
		call = t.update
	}
	var overhead []float64
	if len(call) == len(m.lat) {
		for i, c := range call {
			overhead = append(overhead, m.lat[i]-c)
		}
	}
	ops := float64(len(m.lat))
	return map[string]metric{
		"durserve.overhead_ms":        {p50(overhead), "ms"},
		"durserve.response_bytes":     {float64(m.bodyBytes) / ops, "bytes"},
		"serve.call_ms":               {p50(t.call), "ms"},
		"serve.plan_ms":               {p50(t.plan), "ms"},
		"serve.plan_hit_ratio":        {ratio(float64(t.hits), float64(t.resolutions)), "ratio"},
		"serve.batch_wait_ms":         {p50(t.batchWait), "ms"},
		"serve.allocs_per_answer":     {ratio(float64(t.mallocs), float64(t.answers)), "allocs"},
		"opt.search_ms":               {p50(t.search), "ms"},
		"opt.search_steps":            {ratio(float64(t.searchSteps), float64(len(t.search))), "steps"},
		"core.kernel_ms":              {p50(t.kernel), "ms"},
		"core.ns_per_step":            {ratio(1e6*t.kernelTotal, float64(t.kernelSteps)), "ns"},
		"core.kernel_share":           {ratio(t.kernelTotal, t.callTotal), "ratio"},
		"exec.estimator_ms":           {p50(t.estimator), "ms"},
		"exec.estimator_share":        {ratio(t.estimatorTotal, t.callTotal), "ratio"},
		"stream.update_ms":            {p50(t.update), "ms"},
		"stream.refresh_ms":           {p50(t.refresh), "ms"},
		"stream.fresh_steps_per_tick": {ratio(float64(t.freshSteps), float64(t.ticks)), "steps"},
		"stream.survival_ratio":       {ratio(float64(t.survived), float64(t.survived+t.dropped)), "ratio"},
		"stream.replans_per_tick":     {ratio(float64(t.replans), float64(t.ticks)), "count"},
		"stream.apply_ms":             {p50(t.apply), "ms"},
		"persist.append_us":           {p50(t.appendUs), "us"},
		"persist.wal_bytes_per_tick":  {ratio(float64(t.walBytes), float64(t.ticks)), "bytes"},
		"persist.replay_ms":           {t.replayMs, "ms"},
		"persist.checkpoint_ms":       {p50(t.checkpoint), "ms"},
	}
}
