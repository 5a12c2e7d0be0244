package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness mode reads:
// the workloads and each end-to-end metric's bound.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs every workload n times, alternating the workload order
// from one pass to the next, each run a fresh process with seed 1..n. For
// every end-to-end metric it prints the median, the quartiles, the spread
// (quartile distance over median) and whether the medians of the first
// and second half of the runs agree within the metric's bound. It is how
// the bounds in BENCHMARK.json were set.
func steadiness(n int, seconds float64, args []string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	values := map[string]map[string][]float64{} // workload -> metric -> per-run values
	failShare := map[string][]float64{}
	for i := 0; i < n; i++ {
		for k := range bf.Workloads {
			if i%2 == 1 {
				k = len(bf.Workloads) - 1 - k
			}
			name := bf.Workloads[k].Name
			res, host, err := runOnce(name, uint64(i+1), seconds, args)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i+1, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s run %d: incorrect", name, i+1)
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for m, v := range res.Metrics {
				values[name][m] = append(values[name][m], v.Value)
			}
			failShare[name] = append(failShare[name], float64(res.Failed)/float64(res.Attempted))
			fmt.Fprintf(os.Stderr, "e2ebench: steady %s run %d: reference loop %v ms, steal %.1f%%, p50 %.4g ms\n",
				name, i+1, host.Host["reference_loop_ms"], host.Host["steal_pct"], res.Metrics["latency_p50_ms"].Value)
		}
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "%-15s %-18s %12s %12s %12s %7s %6s %s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "halves agree")
	for _, wl := range bf.Workloads {
		for _, e := range bf.EndToEnd {
			xs := values[wl.Name][e.Name]
			if len(xs) < 2 {
				continue
			}
			q := quartiles(xs)
			first, second := median(xs[:len(xs)/2]), median(xs[len(xs)/2:])
			worse := (second - first) / first
			if e.Better == "higher" {
				worse = -worse
			}
			fmt.Fprintf(w, "%-15s %-18s %12.5g %12.5g %12.5g %7.4f %6.3f %v\n",
				wl.Name, e.Name, q[1], q[0], q[2], (q[2]-q[0])/q[1], e.Bound, math.Abs(worse) <= e.Bound)
		}
		sort.Float64s(failShare[wl.Name])
		fs := failShare[wl.Name]
		fmt.Fprintf(w, "%-15s %-18s %12.5g (same in every run: %v)\n", wl.Name, "failed share", fs[0], fs[0] == fs[len(fs)-1])
	}
	return nil
}

// hostLine is the reference-figure line a run prints before its result.
type hostLine struct {
	Host map[string]any `json:"host"`
}

// runOnce runs the benchmark once in a child process and parses its last
// two lines: the reference figures and the result.
func runOnce(name string, seed uint64, seconds float64, args []string) (result, hostLine, error) {
	cmd := exec.Command(os.Args[0], append(args, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, hostLine{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	var host hostLine
	if len(lines) < 2 {
		return res, host, fmt.Errorf("short output %q", out)
	}
	if err := json.Unmarshal(lines[len(lines)-2], &host); err != nil {
		return res, host, err
	}
	err = json.Unmarshal(lines[len(lines)-1], &res)
	return res, host, err
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}
