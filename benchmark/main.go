// Command telsperf is the TELS benchmark: it drives one workload of the
// real flow (BLIF in → verified .tln out, in-process and through the telsd
// service), checks every op's output, and prints the end-to-end metrics,
// or with --trace 1 the per-layer metrics, as one JSON line.
//
// Build and run it from the root of a checkout, which it reads its inputs
// from, with
//
//	bash benchmark/run.sh --workload flow-cold --seed 1 --seconds 5 --trace 0
//
// See benchmark/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart anchors setup_s and span timestamps.
var processStart = time.Now()

// spanDir is where the traced run writes its spans, relative to the
// checkout root.
const spanDir = ".bench_build/spans"

// opDeadline fails any single op that runs longer (a timeout).
const opDeadline = 60 * time.Second

// outcome is one timed op: its latency and, if it failed, why. key names
// the op in the manifest; qorKey names the network whose quality of
// result it reports (ops that share a network share the key).
type outcome struct {
	lat    time.Duration
	err    error
	key    string
	qorKey string
	out    entry
}

// workload is one named traffic shape over the flow.
type workload interface {
	// prepare derives the workload's inputs from the corpus and dry-runs
	// every distinct op once, checking each output, before any timing.
	prepare(e *env) error
	// pass runs the op sequence once, timing each op and checking its
	// output outside the timer.
	pass(e *env) ([]outcome, error)
	// close releases what prepare started.
	close()
	// minPasses is the least number of passes a run measures, so that a
	// workload with short passes still measures several seconds of work.
	minPasses() int
}

// env is what a workload sees: the corpus, the seed, and the tracer.
type env struct {
	c    *corpus
	seed int64
	tr   *tracer
	// traceMode is set for the traced run; traced reports whether the
	// current pass records spans.
	traceMode, traced bool
}

var workloads = map[string]func() workload{
	"flow-cold":   func() workload { return &flowCold{} },
	"fanin-sweep": func() workload { return &faninSweep{} },
	"telsd-mix":   func() workload { return &telsdMix{} },
	"yield-grid":  func() workload { return &yieldGrid{} },
}

// seededOrder is the op order of a pass: a permutation of n ops drawn
// from the run's seed.
func seededOrder(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// endToEndUnits names every end-to-end metric with its unit.
var endToEndUnits = map[string]string{
	"setup_s":      "s",
	"ops_per_s":    "1/s",
	"op_p50_ms":    "ms",
	"op_tail_ms":   "ms",
	"peak_rss_mb":  "MB",
	"gates_total":  "count",
	"levels_total": "count",
	"area_total":   "count",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the op sequence")
	seconds := flag.Float64("seconds", 5, "minimum length of the timed window; whole passes are measured")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	record := flag.Bool("write-manifest", false, "dry-run every workload and rewrite "+manifestPath)
	flag.Parse()
	if *record {
		if err := writeManifest(); err != nil {
			fmt.Fprintln(os.Stderr, "telsperf:", err)
			os.Exit(1)
		}
		return
	}
	mk, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "telsperf: need --workload {%s}, --trace 0|1 and --seconds > 0\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	res, err := run(mk(), *name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "telsperf:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// writeManifest dry-runs every workload in record mode and stores what
// each op produced. Every output is still proved against its source.
func writeManifest() error {
	c, err := loadCorpus(true)
	if err != nil {
		return err
	}
	e := &env{c: c, seed: 1, tr: newTracer()}
	for _, n := range workloadNames() {
		w := workloads[n]()
		err := w.prepare(e)
		w.close()
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
	}
	return os.WriteFile(manifestPath, []byte(formatManifest(c.man.got)), 0o644)
}

func run(w workload, name string, seed int64, seconds float64, traceMode bool) (*result, error) {
	defer w.close()
	c, err := loadCorpus(false)
	if err != nil {
		return nil, err
	}
	e := &env{c: c, seed: seed, tr: newTracer(), traceMode: traceMode}
	if err := w.prepare(e); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	setup := time.Since(processStart).Seconds()

	var all []outcome
	var passWall []time.Duration // op time per pass
	var passTraced []bool
	var firstPass []outcome
	window := time.Now()
	for p := 1; ; p++ {
		e.traced = traceMode && p%2 == 0
		e.tr.on, e.tr.pass = e.traced, p
		outs, err := w.pass(e)
		e.tr.on = false
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", p, err)
		}
		var sum time.Duration
		for _, o := range outs {
			sum += o.lat
		}
		all = append(all, outs...)
		passWall = append(passWall, sum)
		passTraced = append(passTraced, e.traced)
		if p == 1 {
			firstPass = outs
		}
		if time.Since(window).Seconds() >= seconds && p >= w.minPasses() && (!traceMode || p >= 2) {
			break
		}
		runtime.GC()
	}

	res := &result{Attempted: len(all), Metrics: make(map[string]metric)}
	var lats []time.Duration
	var okTime time.Duration
	ok := 0
	for _, o := range all {
		lats = append(lats, o.lat)
		if o.err == nil && o.lat > opDeadline {
			o.err = fmt.Errorf("%s: timed out after %v", o.key, o.lat)
		}
		if o.err != nil {
			res.Failed++
			if res.Failed <= 10 {
				fmt.Fprintln(os.Stderr, "FAIL", o.err)
			}
			continue
		}
		ok++
		okTime += o.lat
	}
	res.Correct = res.Failed == 0
	ms := latencySummary(lats)
	// The tail percentile is chosen for the samples every run has,
	// minPasses passes, so that a run that fits one more pass reports
	// the same percentile.
	tailP := tailPercentile(len(firstPass) * w.minPasses())
	gates, levels, area := qorTotals(firstPass)
	e2e := make(map[string]metric)
	for name, v := range map[string]float64{
		"setup_s":      setup,
		"ops_per_s":    rate(ok, okTime),
		"op_p50_ms":    percentile(ms, 50),
		"op_tail_ms":   percentile(ms, float64(tailP)/10),
		"peak_rss_mb":  peakRSSMB(),
		"gates_total":  float64(gates),
		"levels_total": float64(levels),
		"area_total":   float64(area),
	} {
		e2e[name] = metric{v, endToEndUnits[name]}
	}
	for i, d := range passWall {
		fmt.Printf("# pass %d: %.3f s op time, traced=%t\n", i+1, d.Seconds(), passTraced[i])
	}
	failRatio := float64(res.Failed) / float64(res.Attempted)
	fmt.Printf("# workload=%s seed=%d nproc=%d go=%s passes=%d ops=%d trace=%t\n",
		name, seed, runtime.NumCPU(), runtime.Version(), len(passWall), len(all), traceMode)
	fmt.Printf("# op_tail_ms is p%s over %d samples (the highest percentile with 10 of the %d samples of %d passes beyond it); fail_ratio=%g (%d/%d)\n",
		strconv.FormatFloat(float64(tailP)/10, 'f', -1, 64), len(ms), len(firstPass)*w.minPasses(), w.minPasses(),
		failRatio, res.Failed, res.Attempted)
	for _, k := range sortedKeys(e2e) {
		fmt.Printf("# %s = %.6g %s\n", k, e2e[k].Value, e2e[k].Unit)
	}
	if !traceMode {
		res.Metrics = e2e
		return res, nil
	}
	res.Metrics = layerMetrics(e.tr, passWall, passTraced)
	path, err := writeSpans(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed), e.tr.spans)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# %d spans written to %s; tracing overhead %.2f%% of op time per pass\n",
		len(e.tr.spans), path, res.Metrics["trace.overhead_pct"].Value)
	return res, nil
}

// rate is ops per second of op time, 0 when no op succeeded. Op time
// leaves out the per-op GC and output checks the benchmark adds between
// ops, so the rate measures the program, not the harness.
func rate(ops int, d time.Duration) float64 {
	if ops == 0 {
		return 0
	}
	return float64(ops) / d.Seconds()
}

// qorTotals sums gates, levels and area over the distinct networks of one
// pass.
func qorTotals(outs []outcome) (gates, levels, area int) {
	seen := make(map[string]bool)
	for _, o := range outs {
		if o.err != nil || o.qorKey == "" || seen[o.qorKey] {
			continue
		}
		seen[o.qorKey] = true
		gates += o.out.Gates
		levels += o.out.Levels
		area += o.out.Area
	}
	return
}

// peakRSSMB reads the process's resident-set high-water mark, 0 where
// the kernel does not report it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
