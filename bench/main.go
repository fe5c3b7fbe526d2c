// Command bench is the K-Join performance ledger: six workloads from a
// batch join to a live durable fleet, end-to-end metrics with regression
// bounds (BENCHMARK.json) and an outside-in number for every layer. See
// README.md.
//
//	bash bench/run.sh --workload serve-mixed --seed 7 --seconds 10 --trace 0
//	bash bench/run.sh                 # every workload, untraced then traced
//	bash bench/run.sh -aa 5           # spread of every metric against its bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// scale sizes the workloads. fullScale is what BENCHMARK.json gates;
// bench_test.go runs a smaller one in seconds.
type scale struct {
	name                      string
	filterN, skewN, verifyN   int
	filterCheck, verifyCheck  int
	setupReps                 int
	servePreload              int     // objects preloaded into serve-mixed
	serveRate                 float64 // serve-mixed gate step, ops/s
	clusterPreload            int
	clusterRate               float64
	ingestPerSec, tailPerSec  int // serve-ingest adds per --seconds second: phase A, phase B
	checkQueries, layerCorpus int
	// Per-layer pass budgets: how long a sampled call is repeated for, and
	// the cap on one loop of whole ops, so expensive thresholds do not
	// stretch the traced pass.
	samplePass, opBudget time.Duration
}

var fullScale = scale{
	name: "full", filterN: 24000, skewN: 24000, verifyN: 1400,
	filterCheck: 1000, verifyCheck: 500, setupReps: 3,
	servePreload: 3000, serveRate: 400,
	clusterPreload: 500, clusterRate: 200,
	ingestPerSec: 800, tailPerSec: 100,
	checkQueries: 200, layerCorpus: 3000,
	samplePass: 100 * time.Millisecond, opBudget: 600 * time.Millisecond,
}

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	scale    scale
	root     string // checkout root (holds go.mod of module kjoin)
	buildDir string // <root>/.bench_build
	serveBin string // kjoin-serve, built into buildDir
}

// prepare finds the checkout, makes its scratch directory and builds the
// server under test into it: the one place kjoin-serve is built. With an
// up-to-date binary the build is a no-op, so a re-executed child pays a
// fraction of a second, outside every set-up time.
func (cfg *config) prepare() error {
	cfg.root = findRoot()
	cfg.buildDir = filepath.Join(cfg.root, ".bench_build")
	cfg.serveBin = filepath.Join(cfg.buildDir, "kjoin-serve")
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		return err
	}
	build := exec.Command("go", "build", "-o", cfg.serveBin, "./cmd/kjoin-serve")
	build.Dir = cfg.root
	if outp, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("build kjoin-serve: %w\n%s", err, outp)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	if activeFleet != nil {
		activeFleet.close()
	}
	os.Exit(1)
}

// activeFleet is the run's process fleet, reachable from fatalf and the
// signal handler so every exit path reaps the servers.
var activeFleet *fleet

func findRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		fatalf("getwd: %v", err)
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module kjoin\n") {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			fatalf("no checkout root (go.mod of module kjoin) above the working directory")
		}
		dir = parent
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all, untraced then traced)")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		aa       = flag.Int("aa", 0, "run the untraced suite K times on consecutive seeds and check every spread against its bound")
	)
	flag.Parse()
	cfg := &config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace != 0, scale: fullScale}
	if err := cfg.prepare(); err != nil {
		fatalf("%v", err)
	}

	switch {
	case *aa > 0:
		os.Exit(runAA(cfg, *aa))
	case cfg.workload == "":
		os.Exit(runSuite(cfg))
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fatalf("interrupted")
	}()
	out := runWorkload(cfg)
	if !report(cfg, out) {
		os.Exit(1)
	}
}

func runWorkload(cfg *config) *outcome {
	var tr *tracer
	if cfg.trace {
		tr = newTracer(cfg.workload)
	}
	var out *outcome
	switch cfg.workload {
	case wBatchFilter, wBatchSkew, wBatchVerify:
		out = runBatch(cfg, cfg.workload, tr)
	case wServeMixed, wClusterMixed:
		out = runMixed(cfg, cfg.workload, tr)
	case wServeIngest:
		out = runIngest(cfg, tr)
	default:
		fatalf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if tr != nil {
		dir := filepath.Join(cfg.buildDir, "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatalf("%v", err)
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			fatalf("write trace: %v", err)
		}
		out.note("trace.spans", float64(len(tr.spans)), "count", path)
	}
	return out
}

// report prints every metric as "name workload value unit", then the
// result object as the last line, and says whether the run was correct.
func report(cfg *config, out *outcome) bool {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Printf("# workload=%s seed=%d seconds=%v trace=%v scale=%s GOMAXPROCS=%d conns=%d\n",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace, cfg.scale.name, runtime.GOMAXPROCS(0), conns())
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v := out.values[d.name]
		res.Metrics[d.name] = value{v, d.unit}
		fmt.Printf("%s %s %v %s\n", d.name, cfg.workload, v, d.unit)
	}
	for _, in := range out.infos {
		fmt.Printf("info %s %s %v %s %s\n", in.name, cfg.workload, in.value, in.unit, in.note)
	}
	for _, p := range out.problems {
		fmt.Printf("PROBLEM %s %s\n", cfg.workload, p)
	}
	fmt.Printf("ops %s attempted=%d failed=%d\n", cfg.workload, out.attempted, out.failed)
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("marshal result: %v", err)
	}
	fmt.Println(string(b))
	return res.Correct && res.Failed == 0
}

// child re-executes the bench for one workload, so peak RSS and GC state
// are per workload, and returns its result object.
func child(cfg *config, workload string, seed uint64, trace bool, echo bool) (*result, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(os.Args[0], "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(cfg.seconds.Seconds()), "-trace", t)
	cmd.Stderr = os.Stderr
	outp, err := cmd.Output()
	if echo {
		os.Stdout.Write(outp)
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d trace %v: %w", workload, seed, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(outp)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	return &res, nil
}

// runSuite runs every workload untraced, then traced.
func runSuite(cfg *config) int {
	code := 0
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			if _, err := child(cfg, w, cfg.seed, trace, true); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
			}
		}
	}
	return code
}

// benchmarkFile is the part of BENCHMARK.json the A/A check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA runs the untraced suite k times on consecutive seeds and prints,
// per metric and workload, the interquartile spread as a share of the
// median beside the metric's bound. Any spread past its bound (setup_s
// excepted, as in the acceptance rule) is a breach and a non-zero exit.
func runAA(cfg *config, k int) int {
	var bf benchmarkFile
	b, err := os.ReadFile(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(b, &bf)
	}
	if err != nil {
		fatalf("BENCHMARK.json: %v", err)
	}
	workloads := workloadNames
	if cfg.workload != "" {
		workloads = []string{cfg.workload}
	}
	fmt.Printf("A/A: %d runs per workload, seeds %d..%d, %v s each\n\n", k, cfg.seed, cfg.seed+uint64(k)-1, cfg.seconds.Seconds())
	fmt.Println("| workload | metric | median | q1 | q3 | spread | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	code := 0
	for _, w := range workloads {
		samples := map[string][]float64{}
		for i := 0; i < k; i++ {
			res, err := child(cfg, w, cfg.seed+uint64(i), false, false)
			if err != nil || !res.Correct || res.Failed > 0 {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: failed run (%v)\n", w, cfg.seed+uint64(i), err)
				code = 1
				continue
			}
			for name, v := range res.Metrics {
				samples[name] = append(samples[name], v.Value)
			}
		}
		for _, m := range bf.EndToEnd {
			vals := samples[m.Name]
			if len(vals) < 2 {
				continue
			}
			q1, med, q3 := quartiles(vals)
			spread := (q3 - q1) / med
			verdict := "ok"
			switch {
			case spread > m.Bound && m.Name != "setup_s":
				verdict = "BREACH"
				code = 1
			case spread > m.Bound/3:
				verdict = "ok (above a third of the bound)"
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %.4g | %.3f | %.2f | %s |\n", w, m.Name, med, q1, q3, spread, m.Bound, verdict)
		}
	}
	return code
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// exclusive method) and statistics.median.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), medianFloat(s), at(3)
}
