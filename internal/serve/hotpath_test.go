package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stats"
)

// The hot-path codec contracts: the hand-rolled envelope decoder and the
// append encoders must be indistinguishable — byte for byte, field for
// field — from the encoding/json paths they replaced, because cache
// addresses, journaled job envelopes, and golden response bodies all
// flow through them.

// envelopeCases are the request bodies both decoders chew through:
// well-formed, hostile, and deliberately weird (duplicate keys, case
// variants, nulls, unknown fields, trailing garbage).
var envelopeCases = []string{
	`{}`,
	`null`,
	``,
	`   `,
	`{"bench":"rotary_pcr"}`,
	`{"BENCH":"rotary_pcr","Seed":7}`,
	`{"bench":"a","bench":"b"}`,
	`{"device":{"name":"d","layers":[]}}`,
	`{"device":null}`,
	`{"device":[1,2,{"x":"y"}]}`,
	`{"text":"v1.1\nDEVICE d\n","format":"mint"}`,
	`{"seed":18446744073709551615}`,
	`{"seed":null,"placer":null,"labels":null,"scale":null}`,
	`{"utilization":0.35,"replicas":4,"scale":2.5,"labels":true}`,
	`{"replicas":-3}`,
	`{"to":"json","unknown":{"deep":[true,null]},"labels":false}`,
	`{"bench":"\u0041\ud83d\ude00<&>"}`,
	"{\"bench\":\"x\"}garbage after",
	`{"bench":"x"}  {"bench":"y"}`,
	`{"seed":1.5}`,
	`{"seed":-1}`,
	`{"labels":"yes"}`,
	`{"bench":42}`,
	`{"bench":"x"`,
	`[1,2,3]`,
	`{"scale":1e-3,"utilization":1e21}`,
	`{"replicas":2147483647}`,
	`{"text":"\u0000\u001f"}`,
}

// stdDecodeRequest is the reference decoding: exactly what decodeRequest
// did before the hand parser, a json.Decoder reading one value.
func stdDecodeRequest(data string, req *request) error {
	return json.NewDecoder(strings.NewReader(data)).Decode(req)
}

func TestParseRequestMatchesStd(t *testing.T) {
	for _, tc := range envelopeCases {
		var want request
		wantErr := stdDecodeRequest(tc, &want)
		var got request
		gotErr := parseRequest([]byte(tc), &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("parseRequest(%q) error = %v, std error = %v", tc, gotErr, wantErr)
			continue
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parseRequest(%q) = %+v, std = %+v", tc, got, want)
		}
	}
}

func TestAppendRequestJSONMatchesStd(t *testing.T) {
	reqs := []request{
		{},
		{Bench: "rotary_pcr"},
		{Bench: "a<&>\u2028", Seed: 18446744073709551615, Placer: "anneal", Router: "astar"},
		{Device: json.RawMessage(`{ "name" : "d",
			"layers" : [ 1, "two", null ] }`), Utilization: 0.35},
		{Device: json.RawMessage(`null`)},
		{Text: "v1.1\nDEVICE d\n", Format: "mint", To: "json"},
		{Scale: 2.5, Labels: true, Replicas: -3},
		{Utilization: 1e-7, Scale: 1e21},
	}
	// Every decodable envelope case must round-trip identically too.
	for _, tc := range envelopeCases {
		var req request
		if stdDecodeRequest(tc, &req) == nil {
			reqs = append(reqs, req)
		}
	}
	for _, req := range reqs {
		want, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("json.Marshal(%+v): %v", req, err)
		}
		got, err := appendRequestJSON(nil, &req)
		if err != nil {
			t.Fatalf("appendRequestJSON(%+v): %v", req, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("appendRequestJSON(%+v):\n got %s\nwant %s", req, got, want)
		}
	}
}

func TestParseBatchRequestMatchesStd(t *testing.T) {
	cases := []string{
		`{}`,
		`null`,
		``,
		`{"items":[]}`,
		`{"items":null}`,
		`{"ITEMS":[{"op":"stats","bench":"rotary_pcr"}]}`,
		`{"items":[{"op":"validate","device":{"k":1}},null,{"seed":9}]}`,
		`{"items":[{"op":"a"}],"items":[{"op":"b"},{"op":"c"}]}`,
		`{"extra":1,"items":[{"op":"pnr","replicas":2,"unknown":[]}]}`,
		`{"items":[{"op":42}]}`,
		`{"items":{"op":"x"}}`,
		`{"items":[`,
	}
	for _, tc := range cases {
		var want batchRequest
		wantErr := json.NewDecoder(strings.NewReader(tc)).Decode(&want)
		var got batchRequest
		gotErr := parseBatchRequest([]byte(tc), &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("parseBatchRequest(%q) error = %v, std error = %v", tc, gotErr, wantErr)
			continue
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parseBatchRequest(%q) = %+v, std = %+v", tc, got, want)
		}
	}
}

func TestParseJobSubmitMatchesStd(t *testing.T) {
	cases := []string{
		`{}`,
		`null`,
		`{"op":"stats","bench":"rotary_pcr"}`,
		`{"OP":"pnr","seed":11,"replicas":3}`,
		`{"op":null,"device":{"a":[false]}}`,
		`{"op":"x","op":"y","unknown":1}`,
		`{"op":true}`,
	}
	for _, tc := range cases {
		var want jobSubmitRequest
		wantErr := json.NewDecoder(strings.NewReader(tc)).Decode(&want)
		var got jobSubmitRequest
		gotErr := parseJobSubmit([]byte(tc), &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("parseJobSubmit(%q) error = %v, std error = %v", tc, gotErr, wantErr)
			continue
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parseJobSubmit(%q) = %+v, std = %+v", tc, got, want)
		}
	}
}

func TestResponseEncodersMatchStd(t *testing.T) {
	check := func(name string, got []byte, v any) {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: json.Marshal: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}

	validates := []validateResponse{
		{},
		{Device: "d<&>", OK: true, Diagnostics: []diagDTO{}},
		{Device: "d", Errors: 2, Warnings: 1,
			Diagnostics: []diagDTO{{Severity: "error", Code: "E001", Path: "layers[0]", Message: "bad \"layer\""}},
			Schema:      []string{"a", "b\u2029"}},
	}
	for _, v := range validates {
		check("validateResponse", appendValidateResponse(nil, &v), &v)
	}

	converts := []convertResponse{
		{Target: "mint", Output: "v1.1\nDEVICE d\n", Lossless: true},
		{Target: "json", Device: json.RawMessage(`{"name":"d"}`), Notes: []string{"n1", "n2"}},
		{Target: "json", Device: json.RawMessage(`null`)},
	}
	for _, v := range converts {
		check("convertResponse", appendConvertResponse(nil, &v), &v)
	}

	pnrs := []pnrResponse{
		{},
		{Device: json.RawMessage(`{"name":"d"}`), Seed: 18446744073709551615, Placer: "anneal", Router: "astar",
			Place: placeSummary{HPWL: -5, Area: 1 << 40, Overlaps: 3, Placed: 7},
			Route: routeSummary{Routed: 9, Total: 10, Completion: 0.9, Length: 12345, Expansions: 88, Rounds: 2}},
	}
	for _, v := range pnrs {
		got, err := appendPNRResponse(nil, &v)
		if err != nil {
			t.Fatalf("appendPNRResponse: %v", err)
		}
		check("pnrResponse", got, &v)
	}

	profiles := []stats.Profile{
		{},
		{Name: "aquaflex_3b", Class: "multiplexer", Layers: 3, Components: 40, Connections: 38,
			Ports: 12, Valves: 20, MultiSink: 2, AvgDegree: 1.9, MaxDegree: 5, Diameter: 11},
	}
	for _, v := range profiles {
		got, err := appendStatsProfile(nil, &v)
		if err != nil {
			t.Fatalf("appendStatsProfile: %v", err)
		}
		check("stats.Profile", got, &v)
	}
}

// TestCacheKeyMatchesLegacy pins the single-pass key derivation against
// the formula it replaced: cache.Key over op, json.Marshal(req), the
// resolved seed, and (multi-replica pnr/render only) the replica count.
// Stored entries and journaled job addresses must survive the refactor.
func TestCacheKeyMatchesLegacy(t *testing.T) {
	s := New(Config{Workers: 2, BaseSeed: BaseSeedDefault, Replicas: 3})
	legacy := func(op string, req *request) string {
		canon, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		seed := req.Seed
		if seed == 0 {
			seed = par.DeriveSeed(s.cfg.BaseSeed, req.Bench)
		}
		var sb [8]byte
		binary.LittleEndian.PutUint64(sb[:], seed)
		if n := s.replicas(req); n > 1 && (op == opPNR || op == opRender) {
			var rb [8]byte
			binary.LittleEndian.PutUint64(rb[:], uint64(n))
			return cache.Key([]byte(op), canon, sb[:], rb[:])
		}
		return cache.Key([]byte(op), canon, sb[:])
	}
	reqs := []request{
		{Bench: "rotary_pcr"},
		{Bench: "rotary_pcr", Seed: 99},
		{Device: json.RawMessage(`{"name":"d"}`), Placer: "anneal", Utilization: 0.4},
		{Text: "v1.1\nDEVICE d\n", Format: "mint", To: "json"},
		{Bench: "aquaflex_3b", Replicas: 1},
		{Bench: "aquaflex_3b", Replicas: 8},
	}
	for _, op := range []string{opValidate, opConvert, opPNR, opStats, opRender} {
		for i := range reqs {
			want := legacy(op, &reqs[i])
			got := s.cacheKey(op, &reqs[i])
			if got != want {
				t.Errorf("cacheKey(%s, %+v) = %s, legacy = %s", op, reqs[i], got, want)
			}
		}
	}
}

// TestGzipByteIdentity pins the compression middleware: decompressing a
// gzip response yields exactly the identity response's bytes, on both a
// JSON endpoint and the SVG renderer, and the SSE stream stays identity.
func TestGzipByteIdentity(t *testing.T) {
	h := newTestServer(2)
	cases := []struct {
		method, path, body string
	}{
		{"GET", "/healthz", ""},
		{"POST", "/v1/stats", `{"bench":"rotary_pcr"}`},
		{"POST", "/v1/validate", `{"bench":"aquaflex_3b"}`},
		{"GET", "/v1/bench?prefix=planar", ""},
	}
	for _, tc := range cases {
		plain := do(t, h, tc.method, tc.path, tc.body)
		if plain.Header().Get("Content-Encoding") != "" {
			t.Fatalf("%s: identity response claims an encoding", tc.path)
		}

		var r *http.Request
		if tc.body == "" {
			r = httptest.NewRequest(tc.method, tc.path, nil)
		} else {
			r = httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
		}
		r.Header.Set("Accept-Encoding", "gzip, deflate")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if got := w.Header().Get("Content-Encoding"); got != "gzip" {
			t.Fatalf("%s: Content-Encoding = %q, want gzip", tc.path, got)
		}
		if got := w.Header().Get("Vary"); got != "Accept-Encoding" {
			t.Errorf("%s: Vary = %q, want Accept-Encoding", tc.path, got)
		}
		zr, err := gzip.NewReader(w.Body)
		if err != nil {
			t.Fatalf("%s: gzip reader: %v", tc.path, err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("%s: decompress: %v", tc.path, err)
		}
		if !bytes.Equal(raw, plain.Body.Bytes()) {
			t.Errorf("%s: decompressed body differs from identity body", tc.path)
		}
	}
}

func TestGzipRefusedQualityZero(t *testing.T) {
	h := newTestServer(2)
	r := httptest.NewRequest("GET", "/healthz", nil)
	r.Header.Set("Accept-Encoding", "gzip;q=0")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if got := w.Header().Get("Content-Encoding"); got != "" {
		t.Errorf("Content-Encoding = %q with q=0, want identity", got)
	}
}

// TestPrettyRestoresIndentedBody pins the ?pretty=1 opt-in: the pretty
// rendering of a compact body is exactly json.MarshalIndent of the same
// value — the bytes every response carried before compact became the
// default.
func TestPrettyRestoresIndentedBody(t *testing.T) {
	h := newTestServer(2)
	paths := []struct {
		method, plain, pretty, body string
	}{
		{"POST", "/v1/stats", "/v1/stats?pretty=1", `{"bench":"rotary_pcr"}`},
		{"POST", "/v1/validate", "/v1/validate?pretty=1", `{"bench":"rotary_pcr"}`},
		{"GET", "/healthz", "/healthz?pretty=1", ""},
		{"GET", "/v1/bench", "/v1/bench?pretty", ""},
		{"GET", "/v1/bench/rotary_pcr", "/v1/bench/rotary_pcr?pretty=true", ""},
	}
	for _, tc := range paths {
		compact := do(t, h, tc.method, tc.plain, tc.body)
		pretty := do(t, h, tc.method, tc.pretty, tc.body)
		if compact.Code != http.StatusOK || pretty.Code != http.StatusOK {
			t.Fatalf("%s: status = %d/%d", tc.plain, compact.Code, pretty.Code)
		}
		var buf bytes.Buffer
		if err := json.Indent(&buf, bytes.TrimRight(compact.Body.Bytes(), "\n"), "", "  "); err != nil {
			t.Fatalf("%s: indent: %v", tc.plain, err)
		}
		buf.WriteByte('\n')
		if !bytes.Equal(pretty.Body.Bytes(), buf.Bytes()) {
			t.Errorf("%s: pretty body is not the indented compact body:\n%s\nvs\n%s",
				tc.pretty, pretty.Body.Bytes(), buf.Bytes())
		}
		// Healthz uptime can tick between the two requests; everything else
		// must be the same document.
		if tc.plain == "/healthz" {
			continue
		}
	}
}

// TestWarmServeAllocs is the allocation guard on the serving hot path: a
// warm-cache request must stay within a pinned allocation budget, so a
// regression that reintroduces per-request garbage fails loudly instead
// of surfacing as a benchmark drift months later.
// allocHarness is the allocation-free request loop the guard measures
// through: a reused request with a resettable body and a discarding
// writer, mirroring the cmd/parchmint-perf serve harness, so the counted
// allocations belong to the serving path rather than test scaffolding.
type allocDiscardWriter struct {
	h      http.Header
	status int
}

func (w *allocDiscardWriter) Header() http.Header         { return w.h }
func (w *allocDiscardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *allocDiscardWriter) WriteHeader(code int)        { w.status = code }

type allocReusableBody struct{ bytes.Reader }

func (*allocReusableBody) Close() error { return nil }

func TestWarmServeAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	h := New(Config{Workers: 2, BaseSeed: BaseSeedDefault, CacheBytes: 1 << 20}).Handler()
	body := []byte(`{"bench":"rotary_pcr"}`)
	req, err := http.NewRequest("POST", "http://perf.local/v1/validate", nil)
	if err != nil {
		t.Fatal(err)
	}
	rb := &allocReusableBody{}
	w := &allocDiscardWriter{h: make(http.Header)}
	run := func() {
		rb.Reset(body)
		req.Body = rb
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status = %d", w.status)
		}
	}
	// Warm the cache, the pools, and the lazily materialized metric cells.
	for range 16 {
		run()
	}
	avg := testing.AllocsPerRun(200, run)
	// The measured warm path sits around 11 allocations: the timeout
	// context machinery, the request ID and its header slice, the root
	// span, the request-context clone, and the cache key string. The
	// ceiling leaves slack for toolchain drift while still failing loudly
	// if per-request decode/encode garbage creeps back in.
	const ceiling = 16
	if avg > ceiling {
		t.Errorf("warm /v1/validate allocates %.1f per request, ceiling %d", avg, ceiling)
	}
}
