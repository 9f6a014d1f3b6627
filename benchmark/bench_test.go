package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"

	"tels/internal/blif"
	"tels/internal/core"
	"tels/internal/mcnc"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{196, 900}, // 19.6 samples beyond p90, 9.8 beyond p95
		{199, 900},
		{200, 950},
		{588, 950},
		{999, 950},
		{1000, 990},
		{10000, 999},
		{100, 900},
		{99, 750},
		{40, 750},
		{39, 500},
		{5, 500},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if got := percentile(s, 50); got != 2.5 {
		t.Errorf("p50 = %v, want 2.5", got)
	}
	if got := percentile(s, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("single-sample p90 = %v, want 7", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},  // nested child with its own child
		{Name: "a1", Start: 15, End: 20, Parent: 1}, // grandchild: subtracted from a only
		{Name: "b", Start: 30, End: 50, Parent: 0},  // adjacent to a
		{Name: "c", Start: 40, End: 60, Parent: 0},  // overlaps b
		{Name: "d", Start: 90, End: 120, Parent: 0}, // runs past the parent's end
	}
	got := selfTimes(spans)
	// root: children cover [10,60] ∪ [90,100] = 60.
	want := []int64{40, 15, 5, 20, 20, 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.on, tr.op, tr.pass = true, "op1", 2
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	tr.add("n", 3)
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[1].Op != "op1" || tr.spans[1].Pass != 2 || tr.counts[2]["n"] != 3 {
		t.Fatalf("span tags or counters not recorded: %+v %v", tr.spans[1], tr.counts)
	}
	var off *tracer
	if off.begin("x") != -1 {
		t.Fatal("a nil tracer recorded a span")
	}
}

func TestSeededOrder(t *testing.T) {
	a, b := seededOrder(196, 7), seededOrder(196, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different op orders")
	}
	if reflect.DeepEqual(a, seededOrder(196, 8)) {
		t.Fatal("different seeds gave the same op order")
	}
}

// hitShare replays a sequence against an empty cache: first occurrences
// miss, repeats hit.
func hitShare(seq []int) float64 {
	seen := make(map[int]bool)
	hits := 0
	for _, i := range seq {
		if seen[i] {
			hits++
		}
		seen[i] = true
	}
	return float64(hits) / float64(len(seq))
}

func TestTelsdSequence(t *testing.T) {
	a, b := telsdSequence(56, 12, 3), telsdSequence(56, 12, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different request sequences")
	}
	want := float64(56+12) / float64(2*56+12)
	for _, seed := range []int64{1, 2, 3, 99} {
		seq := telsdSequence(56, 12, seed)
		if len(seq) != 2*56+12 {
			t.Fatalf("seed %d: %d requests", seed, len(seq))
		}
		if got := hitShare(seq); got != want {
			t.Fatalf("seed %d: hit share %v, want %v", seed, got, want)
		}
	}
}

// testCorpus builds a corpus of the named circuits with a manifest in
// record mode.
func testCorpus(t *testing.T, names ...string) *corpus {
	t.Helper()
	c := &corpus{names: names, blif: make(map[string]string), golden: make(map[string]string),
		man: &manifest{record: true, got: make(map[string]entry)}}
	for _, n := range names {
		text, err := blif.WriteString(mcnc.Build(n))
		if err != nil {
			t.Fatal(err)
		}
		c.blif[n] = text
	}
	return c
}

// checkMode turns a recorded manifest into the expected one.
func checkMode(c *corpus) {
	c.man.want, c.man.record = c.man.got, false
}

func TestManifestCatchesMutatedTLN(t *testing.T) {
	c := testCorpus(t, "rd53")
	e := &env{c: c, seed: 1, tr: newTracer()}
	op := flowOp{"rd53", "algebraic", "tels", "flow/rd53.algebraic.tels"}
	out, err := runFlow(e, op, c.blif["rd53"], false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.man.check(op.key, outputEntry(out.tn, out.tln)); err != nil {
		t.Fatal(err)
	}
	checkMode(c)
	if err := c.man.check(op.key, outputEntry(out.tn, out.tln)); err != nil {
		t.Fatalf("unchanged output rejected: %v", err)
	}
	// Flip one weight sign in the .tln text.
	i := strings.Index(out.tln, "+1*")
	if i < 0 {
		t.Fatalf("no +1 weight in\n%s", out.tln)
	}
	mutated := out.tln[:i] + "-" + out.tln[i+1:]
	if err := c.man.check(op.key, outputEntry(out.tn, mutated)); err == nil {
		t.Fatal("mutated .tln passed the manifest check")
	}
	// Round-trip the manifest through its file format.
	parsed, err := parseManifest(formatManifest(c.man.want))
	if err != nil || !reflect.DeepEqual(parsed, c.man.want) {
		t.Fatalf("manifest round trip: %v", err)
	}
}

func TestReplayMatchesScripts(t *testing.T) {
	c := testCorpus(t, "cm85a", "comp4")
	e := &env{c: c, seed: 1, tr: newTracer(), traceMode: true}
	w := &flowCold{}
	if err := w.prepare(e); err != nil {
		t.Fatal(err)
	}
	checkMode(c)
	e.tr.on, e.tr.pass, e.traced = true, 1, true
	outs, err := w.pass(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.err != nil {
			t.Fatal(o.err)
		}
	}
	calls := make(map[string]int)
	for _, s := range e.tr.spans {
		calls[s.Name]++
	}
	// Per circuit: two arena entries in the algebraic replay and four in
	// each of the two boolean ops.
	if got, want := calls["netcore.from"], 2*(2+2*4); got != want {
		t.Errorf("netcore.from spans = %d, want %d", got, want)
	}
	if calls["opt.full_simplify"] != 4 || calls["blif.parse"] != 8 || calls["sim.prove"] != 8 {
		t.Errorf("span counts %v", calls)
	}
}

func telsdTestMix(t *testing.T, names ...string) (*telsdMix, *env) {
	t.Helper()
	saved := telsdYieldCircuits
	telsdYieldCircuits = names[:1]
	t.Cleanup(func() { telsdYieldCircuits = saved })
	c := testCorpus(t, names...)
	e := &env{c: c, seed: 5, tr: newTracer()}
	w := &telsdMix{}
	t.Cleanup(w.close)
	if err := w.prepare(e); err != nil {
		t.Fatal(err)
	}
	w.seq = telsdSequence(len(w.reqs), 1, e.seed)
	checkMode(c)
	return w, e
}

func TestTelsdPassesShareHitRatio(t *testing.T) {
	w, e := telsdTestMix(t, "rd53", "maj5", "mux4")
	var shares []float64
	for p := 1; p <= 2; p++ {
		e.tr.on, e.tr.pass, e.traced = true, p, true
		outs, err := w.pass(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			if o.err != nil {
				t.Fatal(o.err)
			}
		}
		m := e.tr.counts[p]
		shares = append(shares, m["service.cache_hits"]/m["service.cache_lookups"])
	}
	want := hitShare(w.seq)
	if shares[0] != want || shares[1] != want {
		t.Fatalf("measured hit shares %v, want %v in every pass", shares, want)
	}
}

func TestSSEFallbackFails(t *testing.T) {
	w, e := telsdTestMix(t, "rd53")
	// A proxy that will not stream: the event route answers plain JSON,
	// so Client.Watch falls back to polling.
	w.wrap = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/events") {
				rw.Header().Set("Content-Type", "application/json")
				rw.Write([]byte("{}"))
				return
			}
			h.ServeHTTP(rw, r)
		})
	}
	outs, err := w.pass(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if !errors.Is(o.err, errSSEFallback) {
			t.Fatalf("%s: err = %v, want an SSE fallback failure", o.key, o.err)
		}
	}
}

func TestYieldCrossCheck(t *testing.T) {
	c := testCorpus(t, "cm85a")
	e := &env{c: c, seed: 1, tr: newTracer()}
	w := &yieldGrid{}
	if err := w.prepare(e); err != nil {
		t.Fatal(err)
	}
	if len(w.points) != len(yieldModels)*len(yieldDeltaOns) {
		t.Fatalf("%d grid points", len(w.points))
	}
	// A wrong kernel answer must fail the cross-check: evaluate one point
	// against a network with a flipped threshold.
	p := w.points[0]
	bad := *p.net
	tn, err := core.ParseTLNString(bad.tn.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range tn.Gates {
		g.T += 1000
	}
	bad.tn = tn
	p.net = &bad
	if err := crossCheck(p, w.points[0].net.tn); err == nil {
		t.Fatal("cross-check accepted a kernel evaluating another network")
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
		Work     []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	defs := layerMetricDefs()
	if len(defs) != len(b.PerLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the binary %d", len(b.PerLayer), len(defs))
	}
	for i, d := range defs {
		if p := b.PerLayer[i]; p.Name != d.name || p.Unit != d.unit || p.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, binary has %s %s %s", i, p, d.name, d.unit, d.better)
		}
	}
	if len(b.EndToEnd) != len(endToEndUnits) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the binary %d", len(b.EndToEnd), len(endToEndUnits))
	}
	for _, m := range b.EndToEnd {
		if endToEndUnits[m.Name] != m.Unit {
			t.Errorf("end_to_end %s: unit %q, binary %q", m.Name, m.Unit, endToEndUnits[m.Name])
		}
	}
	var names []string
	for _, w := range b.Work {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "flow-cold,fanin-sweep,telsd-mix,yield-grid" {
		t.Errorf("workloads %v", names)
	}
}
