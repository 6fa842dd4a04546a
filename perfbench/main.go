// Command perfbench is the repository's end-to-end benchmark. It builds
// nothing itself (run.sh builds it and cmd/parchmint-serve from the tree
// under test); it boots the server as a separate process on loopback,
// drives one of three seeded workloads, checks every response, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// With --trace 1 it instead replays the same generated inputs against an
// in-process server behind a real loopback listener, timing the calls
// into each module from this package's own spans, and prints the
// per-layer metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload pnr_cold --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metric is one named, unit-carrying number of the result line.
type metric struct {
	name  string
	value float64
	unit  string
}

// report collects the human-readable lines printed before the result.
type report struct{ lines []string }

func (r *report) add(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func nproc() int { return runtime.NumCPU() }

func main() {
	name := flag.String("workload", "", "pnr_cold, api_warm or jobs_durable")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same requests")
	seconds := flag.Int("seconds", 30, "run size: request counts are this many seconds' worth at the nominal rates")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics; 1 = traced in-process run and per-layer metrics")
	bin := flag.String("server", ".bench_build/parchmint-serve", "parchmint-serve binary built from the tree under test")
	work := flag.String("workdir", ".bench_build/runs", "directory for the run's port file, journal and server log")
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *trace, *bin, *work); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run runs one benchmark and writes its report, ending with the result
// line, to out.
func run(out io.Writer, name string, seed uint64, seconds, trace int, bin, work string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	runtime.GOMAXPROCS(nproc())
	w, err := makeWorkload(name, seed, seconds)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var rep report
	rep.add("workload %s: %s", w.name, w.describe)
	rep.add("context: nproc=%d GOMAXPROCS=%d go=%s seed=%d seconds=%d trace=%d",
		nproc(), runtime.GOMAXPROCS(0), runtime.Version(), seed, seconds, trace)
	ck := &checker{}
	var metrics []metric
	if trace == 0 {
		// The generator allocates per request; collecting less often keeps
		// its pauses out of the latencies. The traced run keeps the
		// default, since it hosts the servers it measures.
		defer debug.SetGCPercent(debug.SetGCPercent(400))
		abs, err := filepath.Abs(bin)
		if err != nil {
			return err
		}
		metrics, err = runE2E(ctx, w, abs, dir, ck, &rep)
		if err != nil {
			return err
		}
	} else {
		metrics, err = runTraced(ctx, w, dir, ck, &rep)
		if err != nil {
			return err
		}
	}
	if ctx.Err() != nil {
		return fmt.Errorf("run exceeded its time limit: %v", ctx.Err())
	}
	for _, e := range ck.errs {
		rep.add("FAILED: %s", e)
	}
	res := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{ck.failed == 0, ck.attempted, ck.failed, map[string]json.RawMessage{}}
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		rep.add("%-28s %14.6f %s", m.name, m.value, m.unit)
		res.Metrics[m.name] = json.RawMessage(fmt.Sprintf(`{"value":%s,"unit":%q}`, formatValue(m.value), m.unit))
	}
	for _, l := range rep.lines {
		fmt.Fprintln(out, l)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// formatValue prints a number with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durations(rs []result, f func(*result) time.Duration) []time.Duration {
	out := make([]time.Duration, len(rs))
	for i := range rs {
		out[i] = f(&rs[i])
	}
	return out
}

// percentile returns the nearest-rank p-quantile.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
