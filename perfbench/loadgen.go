package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// seqHeader numbers each HTTP request of a traced run, so the handler
// wrapper can file its timing under the request it belongs to.
const seqHeader = "X-Perfbench-Seq"

// result is what one operation returned. A job is one operation made of
// three HTTP requests.
type result struct {
	sent    time.Time     // when the first byte was sent
	ack     time.Duration // due time to response headers (the 202 for a job), less lag
	lat     time.Duration // due time to the last response byte, less lag
	rtt     time.Duration // first byte sent to last byte received
	lag     time.Duration // how late the generator sent, see generator.run
	status  int           // status of the last request, 0 on transport error
	outcome string        // X-Parchmint-Cache of the final response
	body    []byte        // identity bytes of the final response, if kept
	wire    int           // response bytes on the wire, all requests
	seqs    []int         // traced runs: the HTTP requests' sequence numbers
	jobID   string
	err     error
}

// generator sends requests to one server over at most conns connections.
type generator struct {
	hc     *http.Client
	base   string
	traced bool
	seq    atomic.Int64
}

func newGenerator(base string, conns int, traced bool) *generator {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &generator{hc: &http.Client{Transport: tr}, base: base, traced: traced}
}

func (d *generator) close() { d.hc.CloseIdleConnections() }

// reply is one HTTP response as received.
type reply struct {
	status  int
	outcome string
	gz      bool
	raw     []byte
	headers time.Time
	seq     int
}

func (d *generator) send(ctx context.Context, method, path string, body []byte, gz bool) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if gz {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	var rep reply
	if d.traced {
		rep.seq = int(d.seq.Add(1))
		req.Header.Set(seqHeader, strconv.Itoa(rep.seq))
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	rep.headers = time.Now()
	rep.status = resp.StatusCode
	rep.outcome = resp.Header.Get("X-Parchmint-Cache")
	rep.gz = resp.Header.Get("Content-Encoding") == "gzip"
	rep.raw, err = io.ReadAll(resp.Body)
	return rep, err
}

// gzipReaders reuses decompressors, which are large, so the generator's
// own garbage collection stays out of the latencies it measures.
var gzipReaders sync.Pool

// identity returns a response's uncompressed bytes.
func identity(raw []byte, gz bool) ([]byte, error) {
	if !gz {
		return raw, nil
	}
	zr, _ := gzipReaders.Get().(*gzip.Reader)
	var err error
	if zr == nil {
		zr, err = gzip.NewReader(bytes.NewReader(raw))
	} else {
		err = zr.Reset(bytes.NewReader(raw))
	}
	if err != nil {
		return nil, err
	}
	defer gzipReaders.Put(zr)
	return io.ReadAll(zr)
}

// do runs one operation and fills res; due is when it was scheduled.
func (d *generator) do(ctx context.Context, r *request, due time.Time, res *result) {
	if r.job {
		d.doJob(ctx, r, due, res)
		return
	}
	rep, err := d.send(ctx, http.MethodPost, r.path(), r.body, r.gzip)
	res.lat = time.Since(due)
	res.ack = rep.headers.Sub(due)
	res.fill(rep, err)
}

func (res *result) fill(rep reply, err error) {
	res.status, res.outcome, res.err = rep.status, rep.outcome, err
	res.wire += len(rep.raw)
	if rep.seq != 0 {
		res.seqs = append(res.seqs, rep.seq)
	}
	if err == nil && (rep.status < 200 || rep.status > 299) {
		res.err = fmt.Errorf("status %d: %.200s", rep.status, rep.raw)
	}
	if res.err == nil {
		res.body, res.err = identity(rep.raw, rep.gz)
	}
}

// doJob submits a job, streams its events to the terminal one and
// fetches the result.
func (d *generator) doJob(ctx context.Context, r *request, due time.Time, res *result) {
	rep, err := d.send(ctx, http.MethodPost, "/v1/jobs", r.body, false)
	res.ack = time.Since(due)
	res.fill(rep, err)
	if res.err == nil && rep.status != http.StatusAccepted {
		res.err = fmt.Errorf("submit: status %d, want 202", rep.status)
	}
	if res.err != nil {
		res.lat = time.Since(due)
		return
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(res.body, &sub); err != nil || sub.ID == "" {
		res.err = fmt.Errorf("submit: unparseable body %.200q", res.body)
		res.lat = time.Since(due)
		return
	}
	res.jobID = sub.ID
	rep, err = d.send(ctx, http.MethodGet, "/v1/jobs/"+sub.ID+"/events?detach=1", nil, false)
	res.fill(rep, err)
	if res.err == nil {
		res.err = checkDone(res.body)
	}
	if res.err == nil {
		rep, err = d.send(ctx, http.MethodGet, "/v1/jobs/"+sub.ID+"/result", nil, false)
		res.fill(rep, err)
	}
	res.lat = time.Since(due)
}

// checkDone finds the terminal event of a job's SSE stream and requires
// it to report completion.
func checkDone(stream []byte) error {
	i := bytes.LastIndex(stream, []byte("event: done\ndata: "))
	if i < 0 {
		return fmt.Errorf("events: no done event in %.200q", stream)
	}
	data := stream[i+len("event: done\ndata: "):]
	if j := bytes.IndexByte(data, '\n'); j >= 0 {
		data = data[:j]
	}
	var done struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(data, &done); err != nil {
		return fmt.Errorf("events: unparseable done event %q", data)
	}
	if done.Status != "completed" {
		return fmt.Errorf("events: job ended %s: %s", done.Status, data)
	}
	return nil
}

// run drives reqs with w.clients concurrent clients. A closed loop sends
// each client's next request when its previous one completes; an open
// loop (rate > 0) schedules request i at start + i/rate and times it from
// then, so a stall also charges the requests queued behind it. The
// generator's own lag is how late a request went out after it was both
// due and had a free client; it is the generator's delay, not the
// server's, so it is taken out of lat and ack. after, when set, runs on
// each result as it completes, on the client's goroutine.
func (d *generator) run(ctx context.Context, reqs []request, clients int, rate float64, after func(i int, res *result)) ([]result, time.Duration) {
	out := make([]result, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				free := time.Now()
				due := free
				if rate > 0 {
					due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
					}
				}
				res := &out[i]
				res.sent = time.Now()
				res.lag = res.sent.Sub(due)
				if free.After(due) {
					res.lag = res.sent.Sub(free)
				}
				d.do(ctx, &reqs[i], due, res)
				res.rtt = res.lat - res.sent.Sub(due)
				res.lat -= res.lag
				res.ack -= res.lag
				if after != nil {
					after(i, res)
				}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}
