package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mint"
	"repro/internal/xrand"
)

// Operation names, as the server's operation table spells them.
const (
	opValidate = "validate"
	opStats    = "stats"
	opConvert  = "convert"
	opPNR      = "pnr"
)

// request is one generated operation. For a job it is the job envelope;
// the synchronous endpoint gets the same envelope without "op".
type request struct {
	op    string
	job   bool   // submitted through POST /v1/jobs
	body  []byte // exactly the bytes the server receives
	sync  []byte // the envelope without "op" (jobs only)
	gzip  bool   // asks for Accept-Encoding: gzip
	entry int    // api_warm: index into the warm set; -1 elsewhere

	// Device source, kept for the traced run's in-process replay.
	bench string // built-in device name, or ""
	dev   []byte // inline ParchMint JSON, or nil
	mint  string // inline MINT text, or ""
}

// path is the endpoint the request is sent to.
func (r *request) path() string {
	if r.job {
		return "/v1/jobs"
	}
	return "/v1/" + r.op
}

// workload is one fixed, seeded list of requests plus how to drive it.
type workload struct {
	name     string
	closed   bool    // closed loop; otherwise open loop at rate
	clients  int     // connections and concurrent clients
	rate     float64 // open loop arrivals per second
	journal  bool    // boot the server with -journal
	prime    []request
	reqs     []request
	probe    []request
	tracedN  int // how many of reqs the traced run replays
	describe string
}

// The devices the workloads draw from: the seven assay devices and the
// first three planar synthetics. planar_synthetic_4 appears only as the
// small heavy share of pnr_cold; planar_synthetic_5 is left out because
// one cold request takes several seconds.
var (
	assayDevices = []string{
		"aquaflex_3b", "aquaflex_5a", "chromatin_immunoprecipitation",
		"general_purpose_mfd", "hiv_diagnostics", "molecular_gradients", "rotary_pcr",
	}
	syntheticDevices = []string{"planar_synthetic_1", "planar_synthetic_2", "planar_synthetic_3"}
	mainDevices      = append(append([]string(nil), assayDevices...), syntheticDevices...)
)

// qualityDevices are pnr'd at the server's derived seed by the probe
// every workload ends with, so workloads without cold pnr still report
// the solution quality of the server's default answer. They are the four
// cheapest assay devices, which keeps the probe and api_warm's priming
// short.
var qualityDevices = []string{"rotary_pcr", "hiv_diagnostics", "aquaflex_3b", "aquaflex_5a"}

// Per-second sizing: request counts are fixed by --seconds and these
// rates, never by elapsed time, so every run of a seed does the same
// work. They are set so that one run lasts about --seconds on a 2-CPU
// machine.
const (
	pnrRoundsPerSecond = 0.6  // a round is one request per main device
	warmRate           = 1000 // api_warm arrivals per second
	jobsPerSecond      = 120
)

// renamed returns a copy of a built-in device under a new name.
// Renaming changes every content address, so each renamed device is a
// cache miss.
func renamed(name, newName string) *core.Device {
	b, err := bench.ByName(name)
	if err != nil {
		panic(err)
	}
	d := b.Device().Clone()
	d.Name = newName
	return d
}

func jsonOf(d *core.Device) []byte {
	data, err := core.MarshalCanonical(d)
	if err != nil {
		panic(err)
	}
	return data
}

func mintOf(d *core.Device) string {
	f, _, err := mint.FromDevice(d)
	if err != nil {
		panic(err)
	}
	return mint.Print(f)
}

// envelope renders a request envelope. Fields are written in a fixed
// order so the same request always has the same bytes.
func envelope(op string, r *request, seed uint64, extra string) []byte {
	var b []byte
	b = append(b, '{')
	if op != "" {
		b = fmt.Appendf(b, `"op":%q,`, op)
	}
	switch {
	case r.bench != "":
		b = fmt.Appendf(b, `"bench":%q`, r.bench)
	case r.dev != nil:
		b = append(b, `"device":`...)
		b = append(b, r.dev...)
	default:
		text, _ := json.Marshal(r.mint)
		b = append(b, `"format":"mint","text":`...)
		b = append(b, text...)
	}
	if seed != 0 {
		b = fmt.Appendf(b, `,"seed":%d`, seed)
	}
	b = append(b, extra...)
	return append(b, '}')
}

func syncRequest(op string, r request, seed uint64) request {
	extra := ""
	if op == opConvert && r.mint == "" {
		extra = `,"to":"mint"`
	}
	r.op = op
	r.entry = -1
	r.body = envelope("", &r, seed, extra)
	return r
}

func jobRequest(op string, r request) request {
	extra := ""
	if op == opConvert && r.mint == "" {
		extra = `,"to":"mint"`
	}
	r.op = op
	r.job = true
	r.entry = -1
	r.body = envelope(op, &r, 0, extra)
	r.sync = envelope("", &r, 0, extra)
	return r
}

// probeRequests is the fixed tail every workload sends after its measured
// phase: pnr of the quality devices at their derived seeds, and one of
// each other operation on an inline device, so the traced run times every
// layer in every workload.
func probeRequests() []request {
	var out []request
	for _, name := range qualityDevices {
		out = append(out, syncRequest(opPNR, request{bench: name}, 0))
	}
	d := renamed("rotary_pcr", "probe_rotary_pcr")
	inline := request{dev: jsonOf(d)}
	out = append(out,
		syncRequest(opValidate, inline, 0),
		syncRequest(opStats, inline, 0),
		syncRequest(opConvert, inline, 0),
		syncRequest(opConvert, request{mint: mintOf(d)}, 0))
	return out
}

// uniqueSeed draws pnr seeds that are nonzero and distinct within a run.
func uniqueSeed(rng *xrand.Source, used map[uint64]bool) uint64 {
	for {
		s := rng.Uint64()
		if s != 0 && !used[s] {
			used[s] = true
			return s
		}
	}
}

// sized is how many units of work --seconds asks for at a nominal rate.
func sized(seconds int, perSecond float64) int {
	n := int(float64(seconds)*perSecond + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// pnrCold: every request is POST /v1/pnr with a fresh explicit seed, so
// every request misses the cache. Requests come in rounds, each a seeded
// permutation of the ten main devices; every fourth round adds one
// planar_synthetic_4. Assay devices go by name, synthetics inline.
func pnrCold(seed uint64, seconds int) *workload {
	rng := xrand.New(seed)
	used := map[uint64]bool{}
	inline := map[string][]byte{}
	for _, name := range append(syntheticDevices, "planar_synthetic_4") {
		b, err := bench.ByName(name)
		if err != nil {
			panic(err)
		}
		inline[name] = jsonOf(b.Device())
	}
	w := &workload{name: "pnr_cold", closed: true, clients: nproc(),
		tracedN: len(mainDevices), probe: probeRequests()}
	for r, n := 0, sized(seconds, pnrRoundsPerSecond); r < n; r++ {
		round := append([]string(nil), mainDevices...)
		if r%4 == 3 {
			round = append(round, "planar_synthetic_4")
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for _, name := range round {
			src := request{bench: name}
			if dev, ok := inline[name]; ok {
				src = request{dev: dev}
			}
			w.reqs = append(w.reqs, syncRequest(opPNR, src, uniqueSeed(rng, used)))
		}
	}
	w.describe = fmt.Sprintf("closed loop, %d clients, %d pnr requests in %d rounds", w.clients, len(w.reqs), sized(seconds, pnrRoundsPerSecond))
	return w
}

// apiWarm: a fixed set of distinct requests that set-up primes, then an
// open-loop stream drawn from it at a fixed rate, so every measured
// request is a cache hit. About a quarter of the stream carries an inline
// device, about half asks for gzip.
func apiWarm(seed uint64, seconds int) *workload {
	rng := xrand.New(seed)
	w := &workload{name: "api_warm", clients: nproc(), rate: warmRate, probe: probeRequests()}
	var named, inline []int
	add := func(r request, list *[]int) {
		r.entry = len(w.prime)
		w.prime = append(w.prime, r)
		*list = append(*list, r.entry)
	}
	for _, name := range mainDevices {
		for _, op := range []string{opValidate, opStats, opConvert} {
			add(syncRequest(op, request{bench: name}, 0), &named)
		}
	}
	for _, name := range qualityDevices {
		add(syncRequest(opPNR, request{bench: name}, 0), &named)
	}
	tag := rng.Uint64()
	for _, name := range mainDevices {
		d := renamed(name, fmt.Sprintf("%s_w%016x", name, tag))
		dev := jsonOf(d)
		for _, op := range []string{opValidate, opStats, opConvert} {
			add(syncRequest(op, request{dev: dev}, 0), &inline)
		}
		add(syncRequest(opConvert, request{mint: mintOf(d)}, 0), &inline)
	}
	n := seconds * warmRate
	w.reqs = make([]request, n)
	for i := range w.reqs {
		list := named
		if rng.Intn(4) == 0 {
			list = inline
		}
		r := w.prime[list[rng.Intn(len(list))]]
		r.gzip = rng.Intn(2) == 0
		w.reqs[i] = r
	}
	w.tracedN = n / 8
	w.describe = fmt.Sprintf("open loop at %d req/s, %d connections, %d requests over %d primed distinct requests", warmRate, w.clients, n, len(w.prime))
	return w
}

// jobsDurable: every job carries its own renamed inline device, so every
// job misses the cache and is journaled in full; half the convert jobs
// come from MINT text.
func jobsDurable(seed uint64, seconds int) *workload {
	rng := xrand.New(seed)
	w := &workload{name: "jobs_durable", closed: true, clients: nproc(), journal: true, probe: probeRequests()}
	ops := []string{opValidate, opStats, opConvert}
	n := seconds * jobsPerSecond
	for i := 0; i < n; i++ {
		name := mainDevices[rng.Intn(len(mainDevices))]
		op := ops[rng.Intn(len(ops))]
		d := renamed(name, fmt.Sprintf("%s_j%06d_%08x", name, i, uint32(rng.Uint64())))
		src := request{dev: jsonOf(d)}
		if op == opConvert && rng.Intn(2) == 0 {
			src = request{mint: mintOf(d)}
		}
		w.reqs = append(w.reqs, jobRequest(op, src))
	}
	w.tracedN = n / 4
	w.describe = fmt.Sprintf("closed loop, %d clients, %d jobs (submit, stream events to done, fetch result)", w.clients, n)
	return w
}

func makeWorkload(name string, seed uint64, seconds int) (*workload, error) {
	switch name {
	case "pnr_cold":
		return pnrCold(seed, seconds), nil
	case "api_warm":
		return apiWarm(seed, seconds), nil
	case "jobs_durable":
		return jobsDurable(seed, seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want pnr_cold, api_warm or jobs_durable)", name)
}
