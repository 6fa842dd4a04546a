package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/drc"
	"repro/internal/validate"
)

// pnrResponse is the part of a POST /v1/pnr answer the checks read.
type pnrResponse struct {
	Device json.RawMessage `json:"device"`
	Seed   uint64          `json:"seed"`
	Place  struct {
		HPWL int64 `json:"hpwl_um"`
	} `json:"place"`
	Route struct {
		Completion float64 `json:"completion_rate"`
		Expansions int     `json:"expansions"`
	} `json:"route"`
}

// quality accumulates solution quality over distinct pnr results.
type quality struct {
	n          int
	completion float64
	hpwl       float64
	drc        float64
	seen       map[string]bool
}

// checker applies the output checks and counts failures. It is shared by
// the clients of a run, so it locks.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	q         quality
}

func (c *checker) count() {
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.errs) < 10 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// check verifies one operation's response and reports whether it passed:
// a 2xx status, a parseable body and, for pnr, a device that passes
// validation. pnr quality is recorded once per distinct request.
func (c *checker) check(r *request, res *result) bool {
	c.count()
	if res.err != nil {
		c.fail("%s %s: %v", r.op, r.path(), res.err)
		return false
	}
	if r.op != opPNR {
		if !json.Valid(res.body) {
			c.fail("%s: unparseable body %.200q", r.op, res.body)
			return false
		}
		return true
	}
	var resp pnrResponse
	if err := json.Unmarshal(res.body, &resp); err != nil {
		c.fail("pnr: unparseable body: %v", err)
		return false
	}
	d, err := core.Unmarshal(resp.Device)
	if err != nil {
		c.fail("pnr: unparseable device: %v", err)
		return false
	}
	if rep := validate.Validate(d); rep.Errors() > 0 {
		c.fail("pnr: %s seed %d: returned device has %d validation errors", d.Name, resp.Seed, rep.Errors())
		return false
	}
	violations := len(drc.Check(d, drc.Rules{}).Violations)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.q.seen == nil {
		c.q.seen = map[string]bool{}
	}
	if key := string(r.body); !c.q.seen[key] {
		c.q.seen[key] = true
		c.q.n++
		c.q.completion += resp.Route.Completion
		c.q.hpwl += float64(resp.Place.HPWL)
		c.q.drc += float64(violations)
	}
	return true
}

// same counts a failure when got differs from want.
func (c *checker) same(what string, want, got []byte) {
	if !bytes.Equal(want, got) {
		c.fail("%s: %d bytes differ from the %d expected", what, len(got), len(want))
	}
}

// digestOf hashes a sequence of response bodies, each length-prefixed.
func digestOf(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
