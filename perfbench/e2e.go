package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// Set-up and recovery are short and noisy, so each is repeated and the
// median reported. One boot of an empty server takes about 6 ms, with a
// quartile spread of about 20% between boots on a shared machine, so
// empty boots are repeated more often than a reboot that replays a
// journal of about a second.
const (
	setupReps        = 15
	recoveryReps     = 15
	journalRecovReps = 5
	// maxLagP99 is how late the generator may send (p99) before a run is
	// declared invalid: ten arrival gaps of api_warm.
	maxLagP99 = 10 * time.Millisecond
)

// runE2E boots the server as its own process, drives the workload over
// loopback with tracing off, checks every response and returns the
// end-to-end metrics.
func runE2E(ctx context.Context, w *workload, bin, dir string, ck *checker, rep *report) ([]metric, error) {
	flags := serverFlags(dir, w.journal)
	rep.add("server flags: %v (plus defaults)", flags)
	setups, srv, expect, err := setUp(ctx, w, bin, dir, flags, ck)
	if err != nil {
		return nil, err
	}
	defer func() { srv.kill() }()

	// The measured phase.
	user0, sys0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	d := newGenerator(srv.base, w.clients, false)
	defer d.close()
	after := func(i int, res *result) {
		r := &w.reqs[i]
		if r.entry >= 0 {
			// Warm hits are compared with the checked priming answer as
			// they arrive and then dropped, so the run holds one copy of
			// each distinct answer.
			ck.count()
			switch {
			case res.err != nil:
				ck.fail("warm %s: %v", r.op, res.err)
			case res.outcome != "hit":
				ck.fail("warm %s: cache %q, want hit", r.op, res.outcome)
			default:
				ck.same("warm "+r.op+" hit", expect[r.entry], res.body)
			}
			res.body = nil
		}
	}
	results, elapsed := d.run(ctx, w.reqs, w.clients, w.rate, after)
	user1, sys1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}

	var ok []result
	var bodies [][]byte
	for i := range results {
		r, res := &w.reqs[i], &results[i]
		if r.entry < 0 && !ck.check(r, res) {
			continue
		}
		if res.err == nil {
			ok = append(ok, *res)
			bodies = append(bodies, res.body)
		}
	}
	if len(ok) == 0 {
		return nil, fmt.Errorf("no operation succeeded; first errors: %v\n%s", ck.errs, srv.logTail())
	}
	if len(w.prime) > 0 {
		bodies = expect
	}
	lag := percentile(durations(ok, func(r *result) time.Duration { return r.lag }), 0.99)
	if lag > maxLagP99 {
		return nil, fmt.Errorf("generator fell behind its schedule: lag p99 %.2f ms > %v", ms(lag), maxLagP99)
	}

	// Jobs: each result must equal the synchronous endpoint's bytes for
	// the same envelope.
	if w.reqs[0].job {
		for i := range results {
			if results[i].err != nil {
				continue
			}
			r := w.reqs[i]
			var res result
			d.do(ctx, &request{op: r.op, body: r.sync}, time.Now(), &res)
			if ck.check(&r, &res) {
				ck.same("job result vs synchronous "+r.op, results[i].body, res.body)
			}
		}
	}

	// The probe: pnr quality at derived seeds and one of each other
	// operation, identical in every workload.
	probe, _ := d.run(ctx, w.probe, w.clients, 0, nil)
	for i := range probe {
		ck.check(&w.probe[i], &probe[i])
	}
	d.close()

	// Crash: SIGKILL, then reboot on the same flags (and journal).
	srv.kill()
	reps := recoveryReps
	if w.journal {
		reps = journalRecovReps
	}
	recov, rebooted, err := reboots(ctx, bin, dir, flags, reps, &w.probe[0], probe[0].body, ck)
	if err != nil {
		return nil, err
	}
	srv = rebooted
	if w.journal {
		verifyRecovered(ctx, srv.base, w, results, ck, rep)
	}
	if rss2, err := srv.peakRSS(); err == nil && rss2 > rss {
		rss = rss2
	}

	lats := durations(ok, func(r *result) time.Duration { return r.lat })
	acks := durations(ok, func(r *result) time.Duration { return r.ack })
	ops := float64(len(results))
	user, sys := user1-user0, sys1-sys0
	rep.add("server CPU over the measured phase: user %.0f ms, system %.0f ms", ms(user), ms(sys))
	rep.add("measured: %d operations in %.2f s, %d succeeded: throughput %.3f/s", len(results), elapsed.Seconds(), len(ok), float64(len(ok))/elapsed.Seconds())
	rep.add("generator lag p99: %.3f ms", ms(lag))
	rep.add("error_rate: %.6f (%d of %d checked operations failed)", float64(ck.failed)/float64(ck.attempted), ck.failed, ck.attempted)
	rep.add("response digest (sha256): %s", digestOf(bodies))
	// Throughput and latencies are reported but not bounded: on a shared
	// 2-CPU machine api_warm's sub-millisecond latencies and
	// jobs_durable's fsync-bound throughput move with the host's load by
	// more than any bound BENCHMARK.json may set. Server CPU time per
	// operation carries the cost instead.
	rep.add("latency ms over %d operations: p50 %.4f p90 %.4f p99 %.4f; to response headers: p50 %.4f p99 %.4f",
		len(lats), ms(percentile(lats, 0.50)), ms(percentile(lats, 0.90)), ms(percentile(lats, 0.99)),
		ms(percentile(acks, 0.50)), ms(percentile(acks, 0.99)))
	q := ck.q
	if q.n == 0 {
		return nil, fmt.Errorf("no pnr result passed its checks")
	}
	return []metric{
		{"setup_s", median(setups), "s"},
		{"success_ratio", 1 - float64(ck.failed)/float64(ck.attempted), "ratio"},
		{"recovery_s", median(recov), "s"},
		{"peak_rss_mb", rss, "MiB"},
		{"server_cpu_ms_per_req", ms(user+sys) / ops, "ms"},
		{"route_completion", q.completion / float64(q.n), "ratio"},
		{"placement_hpwl_um", q.hpwl / float64(q.n), "um"},
		{"drc_violations", q.drc / float64(q.n), "count"},
	}, nil
}

// setUp boots the server to its first 200 on /healthz and, for
// api_warm, primes it, setupReps times. The last boot stays up for the
// workload. Every priming pass must compute the same bytes; the last
// pass's answers are returned.
func setUp(ctx context.Context, w *workload, bin, dir string, flags []string, ck *checker) ([]float64, *server, [][]byte, error) {
	journal := filepath.Join(dir, "journal.jsonl")
	var setups []float64
	var srv *server
	var expect [][]byte
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.kill()
		}
		if err := os.Remove(journal); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, nil, nil, err
		}
		s, took, err := boot(ctx, bin, dir, flags)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("boot: %w", err)
		}
		srv = s
		if len(w.prime) > 0 {
			start := time.Now()
			d := newGenerator(srv.base, w.clients, false)
			res, _ := d.run(ctx, w.prime, w.clients, 0, nil)
			d.close()
			took += time.Since(start)
			bodies := make([][]byte, len(res))
			for j := range res {
				if !ck.check(&w.prime[j], &res[j]) {
					continue
				}
				if res[j].outcome != "miss" {
					ck.fail("priming %s: cache %q, want miss", w.prime[j].op, res[j].outcome)
				}
				bodies[j] = res[j].body
				if expect != nil {
					ck.same("priming "+w.prime[j].op+" bytes across boots", expect[j], bodies[j])
				}
			}
			expect = bodies
		}
		setups = append(setups, took.Seconds())
	}
	return setups, srv, expect, nil
}

// reboots boots the server reps times on the same flags and journal and
// times each boot from exec until the server has answered /healthz and
// then first, the probe's first request, again. An empty boot alone takes
// a few milliseconds and varies by a third between runs; the first real
// answer after a crash is what a client waits for. first must repeat the
// bytes it had before the crash. The last boot stays up.
func reboots(ctx context.Context, bin, dir string, flags []string, reps int, first *request, before []byte, ck *checker) ([]float64, *server, error) {
	var took []float64
	for i := 0; ; i++ {
		srv, booted, err := boot(ctx, bin, dir, flags)
		if err != nil {
			return nil, nil, fmt.Errorf("recovery boot: %w", err)
		}
		start := time.Now()
		d := newGenerator(srv.base, 1, false)
		var res result
		d.do(ctx, first, start, &res)
		d.close()
		took = append(took, (booted + time.Since(start)).Seconds())
		if ck.check(first, &res) {
			ck.same("first answer after recovery", before, res.body)
		}
		if i == reps-1 {
			return took, srv, nil
		}
		srv.kill()
	}
}

// verifyRecovered re-fetches, after the crash and reboot, every job the
// server still lists, and requires the bytes it served before the crash.
func verifyRecovered(ctx context.Context, base string, w *workload, results []result, ck *checker, rep *report) {
	d := newGenerator(base, 1, false)
	defer d.close()
	before := map[string][]byte{}
	for i := range results {
		if results[i].err == nil {
			before[results[i].jobID] = results[i].body
		}
	}
	list, err := d.send(ctx, http.MethodGet, "/v1/jobs", nil, false)
	var page struct {
		Items []struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		} `json:"items"`
	}
	if err == nil {
		err = json.Unmarshal(list.raw, &page)
	}
	if err != nil || list.status != http.StatusOK {
		ck.fail("recovery: listing jobs: status %d, %v", list.status, err)
		return
	}
	checked := 0
	for _, it := range page.Items {
		want, ok := before[it.ID]
		if !ok {
			continue
		}
		ck.count()
		got, err := d.send(ctx, http.MethodGet, "/v1/jobs/"+it.ID+"/result", nil, false)
		if err != nil || got.status != http.StatusOK {
			ck.fail("recovery: job %s (%s): status %d, %v", it.ID, it.Status, got.status, err)
			continue
		}
		ck.same("recovered job "+it.ID, want, got.raw)
		checked++
	}
	rep.add("recovery: %d jobs listed after the crash, %d re-fetched and compared", len(page.Items), checked)
}
