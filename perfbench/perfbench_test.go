package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkloadsPrintEveryMetric runs each workload briefly, untraced and
// traced, and requires a correct result line carrying every metric
// BENCHMARK.json names, with its unit.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the server several times per workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var def struct {
		Workloads []spec `json:"workloads"`
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "parchmint-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/parchmint-serve").CombinedOutput(); err != nil {
		t.Fatalf("building the server: %v\n%s", err, out)
	}
	for _, w := range def.Workloads {
		for trace, want := range [][]spec{def.EndToEnd, def.PerLayer} {
			var out bytes.Buffer
			if err := run(&out, w.Name, 7, 1, trace, bin, dir); err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", w.Name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: result line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d\n%s", w.Name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want a value in %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}
