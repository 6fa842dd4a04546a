package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/mint"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/pnr"
	"repro/internal/route"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/validate"
)

// Layer names of the traced run's spans. Each span wraps one call into a
// module's public API, made by this package: nothing inside the server
// is traced.
const (
	layDecode   = "core.decode"
	layEncode   = "core.encode"
	laySchema   = "schema.check"
	layValidate = "validate"
	layStats    = "stats.profile"
	layMint     = "mint"
	layFlow     = "pnr.flow"
	layAttach   = "pnr.attach"
	layPlace    = "place"
	layRoute    = "route"
)

// span is one timed call.
type span struct {
	name       string
	start, end time.Time
}

// inproc is parchmint-serve's handler stack, configured as the command's
// defaults, served in this process behind a real loopback listener.
type inproc struct {
	base    string
	srv     *http.Server
	svc     *serve.Server
	journal *job.Journal
	logf    *os.File

	mu      sync.Mutex
	handler map[int]time.Duration // by seqHeader
}

func startInproc(dir, tag string, journalPath string, wrap bool) (*inproc, error) {
	p := &inproc{handler: map[int]time.Duration{}}
	if journalPath != "" {
		j, err := job.OpenJournal(journalPath)
		if err != nil {
			return nil, err
		}
		p.journal = j
	}
	logf, err := os.Create(filepath.Join(dir, tag+".log"))
	if err != nil {
		if p.journal != nil {
			_ = p.journal.Close()
		}
		return nil, err
	}
	p.logf = logf
	p.svc = serve.New(serve.Config{
		BaseSeed:       serve.BaseSeedDefault,
		MaxBodyBytes:   8 << 20,
		RequestTimeout: 60 * time.Second,
		CacheBytes:     64 << 20,
		QueueDepth:     256,
		Logger:         obs.NewLogger("text", logf),
		Journal:        p.journal,
	})
	h := p.svc.Handler()
	if wrap {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			inner.ServeHTTP(w, r)
			took := time.Since(start)
			seq, _ := strconv.Atoi(r.Header.Get(seqHeader))
			p.mu.Lock()
			p.handler[seq] = took
			p.mu.Unlock()
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.svc.Close()
		if p.journal != nil {
			_ = p.journal.Close()
		}
		logf.Close()
		return nil, err
	}
	p.base = "http://" + ln.Addr().String()
	p.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = p.srv.Serve(ln) }()
	return p, nil
}

// handlerTime returns the handler time of one HTTP request. The wrapper
// files it before the response's last bytes leave, so it is normally
// there when the client has read the response.
func (p *inproc) handlerTime(seq int) (time.Duration, bool) {
	for i := 0; i < 1000; i++ {
		p.mu.Lock()
		d, ok := p.handler[seq]
		p.mu.Unlock()
		if ok {
			return d, true
		}
		time.Sleep(time.Millisecond)
	}
	return 0, false
}

func (p *inproc) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = p.srv.Shutdown(ctx)
	p.svc.Close()
	if p.journal != nil {
		_ = p.journal.Close()
	}
	p.logf.Close()
}

// phase is one part of the traced run: priming, the replayed share of
// the measured requests, and the probe. Each part is sent in chunks to
// both in-process servers, the untraced one and the traced one,
// alternating which goes first, so the two see the same requests in the
// same warm state and trace.overhead_ratio compares like with like.
type phase struct {
	reqs    []request
	clients int
	rate    float64
	chunk   int
	measure bool // the part whose round trips the overhead ratio compares
}

func tracedPhases(w *workload) []phase {
	measured := phase{reqs: w.reqs[:w.tracedN], clients: 1, chunk: 1, measure: true}
	if !w.closed {
		// The open loop keeps its connections and schedule, in chunks
		// long enough to reach a steady state; its measured requests are
		// warm hits, which replay no computation.
		measured.clients, measured.rate, measured.chunk = w.clients, w.rate, int(w.rate/2)
	}
	return []phase{
		{reqs: w.prime, clients: 1, chunk: len(w.prime)},
		measured,
		{reqs: w.probe, clients: 1, chunk: len(w.probe)},
	}
}

// tracer accumulates the traced pass.
type tracer struct {
	ctx context.Context
	ck  *checker

	mu    sync.Mutex
	spans []span
	ops   int

	cache             *cache.Cache
	hits, misses      int
	serverCoalesced   int
	shed              int
	moves, expansions int64
	rounds            int64
	decodedBytes      int64
	handlerSum        time.Duration
	innerSum          time.Duration
	respBytes         int64
	handler, transp   []time.Duration
	lags              []time.Duration
}

// timed runs f as one span of the named layer and returns its duration.
func (t *tracer) timed(name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: start, end: end})
	t.mu.Unlock()
	return end.Sub(start)
}

// flowReps is how often the traced run repeats a pnr flow. One run of
// identical work varies by 10-15% on a shared machine, more than the
// handler's own overhead, so a single replay could exceed the server's
// handler time and make serve.self_ms_per_req negative; the fastest of
// three is the flow's cost.
const flowReps = 3

// fastest runs f n times and records the fastest run as the span.
func (t *tracer) fastest(name string, n int, f func()) time.Duration {
	var best span
	for i := 0; i < n; i++ {
		start := time.Now()
		f()
		end := time.Now()
		if i == 0 || end.Sub(start) < best.end.Sub(best.start) {
			best = span{name: name, start: start, end: end}
		}
	}
	t.mu.Lock()
	t.spans = append(t.spans, best)
	t.mu.Unlock()
	return best.end.Sub(best.start)
}

func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, s := range t.spans {
		if s.name == name {
			sum += s.end.Sub(s.start)
		}
	}
	return sum
}

// replay repeats in this process, through the modules' public functions,
// the computation the server did for one operation, and returns the time
// of the layers that sit inside the server's handler.
func (t *tracer) replay(r *request, res *result) time.Duration {
	ck := t.ck
	var d *core.Device
	var err error
	var inner time.Duration
	class := "custom"
	switch {
	case r.bench != "":
		b, berr := bench.ByName(r.bench)
		if berr != nil {
			ck.fail("replay: %v", berr)
			return 0
		}
		d, class = b.Device(), string(b.Class)
	case r.dev != nil:
		inner += t.timed(layDecode, func() { d, err = core.Unmarshal(r.dev) })
		t.mu.Lock()
		t.decodedBytes += int64(len(r.dev))
		t.mu.Unlock()
	default:
		inner += t.timed(layMint, func() {
			var f *mint.File
			if f, err = mint.Parse(r.mint); err == nil {
				d, _, err = mint.ToDevice(f)
			}
		})
	}
	if err != nil {
		ck.fail("replay %s: decoding the request's device: %v", r.op, err)
		return inner
	}
	switch r.op {
	case opValidate:
		inner += t.timed(layValidate, func() { validate.Validate(d) })
		if r.dev != nil {
			inner += t.timed(laySchema, func() { schema.Check(r.dev) })
		}
	case opStats:
		inner += t.timed(layStats, func() { stats.ProfileDevice(d, class) })
	case opConvert:
		if r.mint != "" {
			inner += t.timed(layEncode, func() { _, err = core.AppendDeviceJSON(nil, d) })
		} else {
			inner += t.timed(layMint, func() {
				var f *mint.File
				if f, _, err = mint.FromDevice(d); err == nil {
					mint.Print(f)
				}
			})
		}
		if err != nil {
			ck.fail("replay convert: %v", err)
		}
	case opPNR:
		inner += t.replayPNR(d, res)
	}
	return inner
}

// replayPNR runs the flow at the seed the server reported, then placement
// and routing on their own, and checks the work counters and bytes
// against the server's answer.
func (t *tracer) replayPNR(d *core.Device, res *result) time.Duration {
	ck := t.ck
	var resp pnrResponse
	if err := json.Unmarshal(res.body, &resp); err != nil {
		ck.fail("replay pnr: %v", err)
		return 0
	}
	inner := t.timed(layValidate, func() { validate.Validate(d) })
	opts := pnr.NewOptions(pnr.WithSeed(resp.Seed))
	var flow *pnr.Result
	var err error
	inner += t.fastest(layFlow, flowReps, func() { flow, err = pnr.RunContext(t.ctx, d, opts) })
	if err != nil {
		ck.fail("replay pnr %s: %v", d.Name, err)
		return inner
	}
	var enc []byte
	inner += t.timed(layEncode, func() { enc, err = core.AppendDeviceJSON(nil, flow.Device) })
	if err == nil {
		ck.same("replayed pnr device "+d.Name, resp.Device, enc)
	}
	var p *place.Placement
	t.timed(layPlace, func() { p, err = place.Annealer{}.Place(t.ctx, d, opts.Place) })
	if err != nil {
		ck.fail("replay place %s: %v", d.Name, err)
		return inner
	}
	var rr *route.Report
	t.timed(layRoute, func() { rr, err = route.RouteAll(t.ctx, p, route.AStar{}, opts.Route) })
	if err != nil {
		ck.fail("replay route %s: %v", d.Name, err)
		return inner
	}
	// The flow's attach stage, timed through its public steps: a
	// difference of whole-flow and per-stage timings is below their
	// run-to-run noise. The valve map has no public entry point and is
	// left out.
	t.timed(layAttach, func() {
		out := d.Clone()
		out.Features = append(place.ToFeatures(p), rr.Features()...)
		out.AttachPaths()
	})
	if p.Moves != flow.Placement.Moves {
		ck.fail("place.moves %d != pnr.RunContext Placement.Moves %d (%s)", p.Moves, flow.Placement.Moves, d.Name)
	}
	if rr.TotalExpansions() != resp.Route.Expansions {
		ck.fail("route.expansions %d != server-reported %d (%s)", rr.TotalExpansions(), resp.Route.Expansions, d.Name)
	}
	t.mu.Lock()
	t.moves += int64(p.Moves)
	t.expansions += int64(rr.TotalExpansions())
	t.rounds += int64(rr.Rounds)
	t.mu.Unlock()
	return inner
}

// cacheKey is the benchmark's own content address for an operation: the
// op and the envelope the server receives.
func cacheKey(r *request) string {
	env := r.body
	if r.job {
		env = r.sync
	}
	return cache.Key([]byte(r.op), env)
}

// observe files one finished operation of the traced pass: its checks,
// the cache replay, the computation replay for a miss, and the split of
// its round trip into handler and transport.
func (t *tracer) observe(p *inproc, r *request, res *result) {
	if res.status == http.StatusTooManyRequests {
		t.mu.Lock()
		t.shed++
		t.mu.Unlock()
	}
	// A hit must repeat the bytes of the miss the benchmark's own cache
	// kept; anything else gets the full check.
	key := cacheKey(r)
	ent, hit := t.cache.Lookup(key)
	if hit && res.err == nil {
		t.ck.count()
		t.ck.same("traced hit "+r.op, ent.Body, res.body)
	} else if !t.ck.check(r, res) {
		return
	}
	if !hit {
		t.cache.Put(key, cache.Entry{ContentType: "application/json", Body: res.body})
	}
	if hit != (res.outcome == "hit") {
		t.ck.fail("cache replay %v but server said %q for %s", hit, res.outcome, r.op)
	}
	var inner time.Duration
	if res.outcome == "miss" {
		inner = t.replay(r, res)
	}
	var handler time.Duration
	for _, seq := range res.seqs {
		h, ok := p.handlerTime(seq)
		if !ok {
			t.ck.fail("no handler time filed for request %d", seq)
		}
		handler += h
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	if hit {
		t.hits++
	} else {
		t.misses++
	}
	if res.outcome == "coalesced" {
		t.serverCoalesced++
	}
	t.handlerSum += handler
	t.innerSum += inner
	t.respBytes += int64(res.wire)
	t.handler = append(t.handler, handler)
	t.transp = append(t.transp, res.rtt-handler)
	t.lags = append(t.lags, res.lag)
}

// runTraced replays the workload's inputs against two in-process
// servers, one plain and one traced, and returns the per-layer metrics of
// the traced one.
func runTraced(ctx context.Context, w *workload, dir string, ck *checker, rep *report) ([]metric, error) {
	apath, jpath := "", ""
	if w.journal {
		apath, jpath = filepath.Join(dir, "untraced.jsonl"), filepath.Join(dir, "traced.jsonl")
	}
	a, err := startInproc(dir, "untraced", apath, false)
	if err != nil {
		return nil, err
	}
	defer a.stop()
	b, err := startInproc(dir, "traced", jpath, true)
	if err != nil {
		return nil, err
	}
	da, db := newGenerator(a.base, w.clients, false), newGenerator(b.base, w.clients, true)
	t := &tracer{ctx: ctx, ck: ck, cache: cache.New(64 << 20)}
	var rtt [2]time.Duration // untraced, traced
	var measured [2]int
	jobs := 0
	for _, ph := range tracedPhases(w) {
		for c, lo := 0, 0; lo < len(ph.reqs); c, lo = c+1, lo+ph.chunk {
			reqs := ph.reqs[lo:min(lo+ph.chunk, len(ph.reqs))]
			for k := 0; k < 2; k++ {
				traced := (k+c)%2 == 1
				var res []result
				if traced {
					res, _ = db.run(ctx, reqs, ph.clients, ph.rate, func(i int, res *result) {
						t.observe(b, &reqs[i], res)
						res.body = nil
					})
				} else {
					res, _ = da.run(ctx, reqs, ph.clients, ph.rate, func(i int, res *result) { res.body = nil })
				}
				x := 0
				if traced {
					x = 1
				}
				for i := range res {
					if res[i].err != nil {
						if !traced {
							b.stop()
							return nil, fmt.Errorf("untraced pass: %s: %v", reqs[i].op, res[i].err)
						}
						continue
					}
					if ph.measure {
						rtt[x] += res[i].rtt
						measured[x]++
					}
				}
			}
		}
		for i := range ph.reqs {
			if ph.reqs[i].job {
				jobs++
			}
		}
	}
	da.close()
	db.close()
	b.stop()
	if t.ops == 0 || measured[1] == 0 {
		return nil, fmt.Errorf("traced run: no operation succeeded; first errors: %v", ck.errs)
	}
	overhead := (float64(rtt[1]) / float64(measured[1])) / (float64(rtt[0]) / float64(measured[0]))

	// The journal: what the traced pass wrote, and how long opening it
	// for replay takes. Workloads without jobs open an empty journal.
	if jpath == "" {
		jpath = filepath.Join(dir, "empty.jsonl")
	}
	var jbytes, jlines int64
	if data, err := os.ReadFile(jpath); err == nil {
		jbytes = int64(len(data))
		jlines = int64(bytes.Count(data, []byte("\n")))
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	openStart := time.Now()
	j, err := job.OpenJournal(jpath)
	openTook := time.Since(openStart)
	if err != nil {
		return nil, err
	}
	_ = j.Close()

	placeT, routeT := t.total(layPlace), t.total(layRoute)
	decodeT := t.total(layDecode)
	self := (t.handlerSum - t.innerSum) / time.Duration(t.ops)
	transport := percentile(t.transp, 0.50)
	if self < 0 || transport < 0 {
		ck.fail("negative remainder: serve.self %.3f ms/req, transport p50 %.3f ms", ms(self), ms(transport))
	}
	perJob := 0.0
	if jobs > 0 {
		perJob = float64(jbytes) / float64(jobs)
	}
	rep.add("traced run: %d operations (%d of the measured requests), %d spans", t.ops, measured[1], len(t.spans))
	return []metric{
		{"place.ms_total", ms(placeT), "ms"},
		{"place.moves", float64(t.moves), "count"},
		{"place.ns_per_move", nsPer(placeT, t.moves), "ns"},
		{"route.ms_total", ms(routeT), "ms"},
		{"route.expansions", float64(t.expansions), "count"},
		{"route.ns_per_expansion", nsPer(routeT, t.expansions), "ns"},
		{"route.rounds", float64(t.rounds), "count"},
		{"pnr.flow_ms_total", ms(t.total(layFlow)), "ms"},
		{"pnr.attach_ms_total", ms(t.total(layAttach)), "ms"},
		{"serve.handler_p50_ms", ms(percentile(t.handler, 0.50)), "ms"},
		{"serve.handler_p99_ms", ms(percentile(t.handler, 0.99)), "ms"},
		{"serve.self_ms_per_req", ms(self), "ms"},
		{"serve.resp_bytes_per_req", float64(t.respBytes) / float64(t.ops), "bytes"},
		{"serve.shed_total", float64(t.shed), "count"},
		{"transport.p50_ms", ms(transport), "ms"},
		{"cache.hit_ratio", float64(t.hits) / float64(t.hits+t.misses), "ratio"},
		{"cache.miss_total", float64(t.misses), "count"},
		{"cache.coalesced_total", float64(t.serverCoalesced), "count"},
		{"core.encode_ms_total", ms(t.total(layEncode)), "ms"},
		{"core.decode_ms_total", ms(decodeT), "ms"},
		{"core.decode_mb_per_s", float64(t.decodedBytes) / 1e6 / decodeT.Seconds(), "MB/s"},
		{"schema.check_ms_total", ms(t.total(laySchema)), "ms"},
		{"validate.ms_total", ms(t.total(layValidate)), "ms"},
		{"stats.profile_ms_total", ms(t.total(layStats)), "ms"},
		{"mint.ms_total", ms(t.total(layMint)), "ms"},
		{"job.journal_bytes_per_job", perJob, "bytes"},
		{"job.journal_lines", float64(jlines), "count"},
		{"job.open_journal_s", openTook.Seconds(), "s"},
		{"loadgen.lag_p99_ms", ms(percentile(t.lags, 0.99)), "ms"},
		{"loadgen.requests", float64(t.ops), "count"},
		{"trace.overhead_ratio", overhead, "ratio"},
	}, nil
}

func nsPer(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
