// Command e2ebench is the end-to-end benchmark of durserve: it drives the
// real binary over HTTP with fixed-work workloads, checks every answer
// against its own reference computation, and (with --trace 1) replays the
// same requests in-process through the serving layers' Go functions to
// split each answer's time by layer. See README.md.
//
//	bash e2ebench/run.sh --workload query-warm --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// modelParams are the gbm and walk parameters durserve is started with:
// gbm steps log S by drift - sigma²/2 + sigma·Z from s0, walk steps X by
// drift + sigma·Z from start.
type modelParams struct{ s0, drift, sigma, start float64 }

var serverModel = modelParams{s0: 100, drift: 0.0003, sigma: 0.01, start: 0}

// workDir holds every run's data directories and traces, relative to the
// root of the checkout the benchmark runs from.
const workDir = ".bench_build/run"

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: query-warm, query-cold, batch-ladder or stream-durable")
		seed     = flag.Uint64("seed", 1, "workload seed: the order of the requests within each round")
		seconds  = flag.Float64("seconds", 15, "run length the fixed operation count is sized for")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics from a traced in-process replay")
		durserve = flag.String("durserve", "", "durserve binary")
		steady   = flag.Int("steady", 0, "steadiness mode: run every workload this many times and report the spread")
	)
	flag.Parse()
	if *steady > 0 {
		if err := steadiness(*steady, *seconds, []string{"-durserve", *durserve}); err != nil {
			fatal(err)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *durserve == "" {
		fatal(fmt.Errorf("-durserve names no binary"))
	}
	dir := filepath.Join(workDir, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	defer os.RemoveAll(dir)

	steal0, total0 := hostCPU()
	loop0 := referenceLoop()

	rounds := w.rounds(*seconds)
	ops := w.ops(*seed, rounds)
	ref := newReference(serverModel, w.maxHorizon(rounds))

	m, err := runHTTP(w, ops, ref, *durserve, filepath.Join(dir, "http"))
	if err != nil {
		fatal(err)
	}
	res := result{Attempted: len(ops) + m.subscribes, Failed: m.chk.failedOps}
	host := map[string]any{
		"operations": len(ops),
		"timed_s":    m.wall.Seconds(),
		"coverage":   m.chk.coverage(),
		"setup_s":    m.setup,
	}
	runErrs := m.chk.runErrs
	if *trace == 1 {
		t, err := runTraced(w, ops, ref, filepath.Join(dir, "trace"))
		if err != nil {
			fatal(err)
		}
		res.Attempted += t.attempted
		res.Failed += t.chk.failedOps
		runErrs = append(runErrs, t.chk.runErrs...)
		res.Metrics = t.metrics(m)
		host["span_ns"] = spanCost()
		host["spans"] = len(t.spans.spans)
		if err := t.spans.write(filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, *seed))); err != nil {
			fatal(err)
		}
	} else {
		res.Metrics = m.metrics()
	}
	res.Correct = len(runErrs) == 0

	steal1, total1 := hostCPU()
	host["reference_loop_ms"] = []float64{ms(loop0), ms(referenceLoop())}
	host["steal_pct"] = 100 * float64(steal1-steal0) / float64(max(total1-total0, 1))
	printJSON(map[string]any{"host": host})
	printJSON(res)
}

// metrics are the end-to-end figures of an HTTP run.
func (m *measured) metrics() map[string]metric {
	return map[string]metric{
		"latency_p50_ms":    {percentile(m.lat, 0.5), "ms"},
		"latency_p90_ms":    {percentile(m.lat, 0.9), "ms"},
		"answers_per_s":     {float64(m.answers) / m.wall.Seconds(), "1/s"},
		"steps_per_answer":  {float64(m.steps) / float64(m.answers), "steps"},
		"cpu_ms_per_answer": {ms(m.cpu) / float64(m.answers), "ms"},
		"peak_rss_mb":       {m.rssMB, "MB"},
		"setup_s":           {median(m.setup), "s"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}
