package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the whole of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(findRoot(), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkJSON
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFile holds BENCHMARK.json to the contract's limits and to
// the metric tables the command prints from.
func TestBenchmarkFile(t *testing.T) {
	bf := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q: only letters, digits, _ . - and at most 64 of them", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	var workloads []string
	for _, w := range bf.Workloads {
		use(w.Name)
		workloads = append(workloads, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(workloads, workloadNames) {
		t.Errorf("workloads in the file %v, in the command %v", workloads, workloadNames)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("file has %d+%d metrics, the command prints %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	e2e := map[string]bool{}
	for i, m := range bf.EndToEnd {
		use(m.Name)
		e2e[m.Name] = true
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d: file %v, command %v", i, m, d)
		}
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s metric")
	}
	for i, m := range bf.PerLayer {
		use(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: file %v, command %v", i, m, d)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		// Every layer number names the end-to-end metric and the
		// workloads it is expected to move.
		if !e2e[d.moves] {
			t.Errorf("%s moves %q, which is not an end-to-end metric", d.name, d.moves)
		}
		if len(d.on) == 0 {
			t.Errorf("%s names no workload", d.name)
		}
		for _, w := range d.on {
			if !slices.Contains(workloadNames, w) {
				t.Errorf("%s names unknown workload %q", d.name, w)
			}
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	if !slices.Equal(bf.Paths, []string{"bench"}) {
		t.Errorf("paths %v", bf.Paths)
	}
}

// tinyScale runs every workload in well under a second.
var tinyScale = scale{
	name: "tiny", filterN: 1200, skewN: 800, verifyN: 300,
	filterCheck: 200, verifyCheck: 120, setupReps: 1,
	servePreload: 150, serveRate: 200,
	clusterPreload: 60, clusterRate: 80,
	ingestPerSec: 300, tailPerSec: 60,
	checkQueries: 30, layerCorpus: 300,
	samplePass: 5 * time.Millisecond, opBudget: 50 * time.Millisecond,
}

// traceLayers reads a trace file and returns the set of packages its
// spans name.
func traceLayers(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	layers := map[string]bool{}
	dec := json.NewDecoder(f)
	for dec.More() {
		var sp span
		if err := dec.Decode(&sp); err != nil {
			t.Fatal(err)
		}
		if sp.EndNs < sp.StartNs || sp.Workload == "" {
			t.Errorf("%s: malformed span %+v", path, sp)
		}
		layer, _, _ := strings.Cut(sp.Name, ".")
		layers[layer] = true
	}
	return layers
}

// TestWorkloadsTiny runs all six workloads at the tiny scale, untraced
// and traced, and checks that each passes its output checks, reports
// every metric of its table, and that its trace holds spans of exactly the
// layers its requests cross: no wal or server span in a batch trace,
// cluster spans only in cluster-mixed.
func TestWorkloadsTiny(t *testing.T) {
	join := []string{"bench", "core", "elem", "strutil", "sig", "index", "verify", "matching"}
	serve := append([]string{"client", "wal", "serverutil", "server"}, join...)
	crossed := map[string][]string{
		wBatchFilter: join, wBatchSkew: join, wBatchVerify: join,
		wServeMixed: serve, wServeIngest: serve,
		wClusterMixed: append([]string{"cluster"}, serve...),
	}
	base := config{seed: 5, seconds: 500 * time.Millisecond, scale: tinyScale}
	if err := base.prepare(); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := base
			cfg.workload, cfg.trace = w, trace
			t0 := time.Now()
			out := runWorkload(&cfg)
			t.Logf("%s trace=%v: %v", w, trace, time.Since(t0).Round(time.Millisecond))
			for _, p := range out.problems {
				t.Errorf("%s trace=%v: %s", w, trace, p)
			}
			if out.failed != 0 || out.attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w, trace, out.attempted, out.failed)
			}
			if !trace {
				for _, d := range endToEnd {
					if out.values[d.name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, d.name, out.values[d.name])
					}
				}
				continue
			}
			// A layer number exists wherever it is expected to move something.
			for _, d := range perLayer {
				if _, ok := out.values[d.name]; !ok && slices.Contains(d.on, w) {
					t.Errorf("%s: metric %s, expected to move %s here, was not measured", w, d.name, d.moves)
				}
			}
			got := traceLayers(t, filepath.Join(cfg.buildDir, "trace", w+"-seed5.jsonl"))
			for _, l := range crossed[w] {
				if !got[l] {
					t.Errorf("%s: no %s.* span in the trace", w, l)
				}
				delete(got, l)
			}
			for l := range got {
				t.Errorf("%s: %s.* span in the trace of a workload that does not cross that layer", w, l)
			}
		}
	}
}
