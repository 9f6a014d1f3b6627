package main

import "time"

// layerMetric is one per-layer metric of the traced run. Span-derived
// values are self times (ms) or call counts of the named span; counter
// values come from tracer.add. Everything is per traced pass except set-up
// metrics, which cover the set-up (pass 0) once.
type layerMetric struct {
	name, unit, better string
	value              func(a *layerAgg) float64
}

// layerAgg sums spans and counters over the traced passes.
type layerAgg struct {
	passes    float64
	selfMS    map[string]float64 // span name → self time, traced passes
	calls     map[string]float64
	setupMS   map[string]float64 // span name → self time, set-up
	counts    map[string]float64
	overhead  float64
	spanCount float64
}

func selfMS(span string) func(a *layerAgg) float64 {
	return func(a *layerAgg) float64 { return a.selfMS[span] / a.passes }
}

func calls(spans ...string) func(a *layerAgg) float64 {
	return func(a *layerAgg) float64 {
		n := 0.0
		for _, s := range spans {
			n += a.calls[s]
		}
		return n / a.passes
	}
}

func count(name string) func(a *layerAgg) float64 {
	return func(a *layerAgg) float64 { return a.counts[name] / a.passes }
}

// ratio divides two counters; an empty denominator reads 0.
func ratio(num, den string) func(a *layerAgg) float64 {
	return func(a *layerAgg) float64 {
		if a.counts[den] == 0 {
			return 0
		}
		return a.counts[num] / a.counts[den]
	}
}

func callRatio(num, span string) func(a *layerAgg) float64 {
	return func(a *layerAgg) float64 {
		if a.calls[span] == 0 {
			return 0
		}
		return a.counts[num] / a.calls[span]
	}
}

// optPasses names the opt layer's exported passes as the metrics do.
var optPasses = []string{"sweep", "simplify", "eliminate", "extract", "resub", "full_simplify"}

// layerMetricDefs lists every per-layer metric in BENCHMARK.json order.
func layerMetricDefs() []layerMetric {
	defs := []layerMetric{
		{"blif.parse_ms", "ms", "lower", selfMS("blif.parse")},
		{"blif.parse_calls", "count", "lower", calls("blif.parse")},
	}
	for _, p := range optPasses {
		defs = append(defs,
			layerMetric{"opt." + p + "_ms", "ms", "lower", selfMS("opt." + p)},
			layerMetric{"opt." + p + "_applied", "count", "lower", count("opt." + p + "_applied")})
	}
	defs = append(defs, []layerMetric{
		{"opt.nodes_out", "count", "lower", count("opt.nodes_out")},
		{"opt.literals_out", "count", "lower", count("opt.literals_out")},
		{"netcore.from_ms", "ms", "lower", selfMS("netcore.from")},
		{"netcore.to_ms", "ms", "lower", selfMS("netcore.to")},
		{"netcore.crossings", "count", "lower", calls("netcore.from", "netcore.to")},
		{"core.synthesize_ms", "ms", "lower", selfMS("core.synthesize")},
		{"core.synthesize_calls", "count", "lower", calls("core.synthesize")},
		{"core.one2one_ms", "ms", "lower", selfMS("core.one2one")},
		{"core.one2one_calls", "count", "lower", calls("core.one2one")},
		{"core.ilp_calls", "count", "lower", count("core.ilp_calls")},
		{"core.ilp_feasible_ratio", "ratio", "higher", ratio("core.ilp_feasible", "core.ilp_calls")},
		{"core.collapses", "count", "lower", count("core.collapses")},
		{"core.unate_splits", "count", "lower", count("core.unate_splits")},
		{"core.binate_splits", "count", "lower", count("core.binate_splits")},
		{"core.theorem2", "count", "lower", count("core.theorem2")},
		{"core.checks", "count", "lower", count("core.checks")},
		{"core.unsat_hit_ratio", "ratio", "higher", ratio("core.unsat_hits", "core.checks")},
		{"core.races", "count", "lower", count("core.races")},
		{"core.budget_bailouts", "count", "lower", count("core.budget_bailouts")},
		{"sim.prove_ms", "ms", "lower", selfMS("sim.prove")},
		{"sim.prove_calls", "count", "lower", calls("sim.prove")},
		{"sim.proved_ratio", "ratio", "higher", callRatio("sim.proved", "sim.prove")},
		{"fsim.session_ms", "ms", "lower", func(a *layerAgg) float64 { return a.setupMS["fsim.session"] }},
		{"fsim.estimate_ms", "ms", "lower", selfMS("fsim.estimate")},
		{"fsim.estimates", "count", "lower", count("fsim.estimates")},
		{"fsim.trials", "count", "lower", count("fsim.trials")},
		{"fsim.early_stop_ratio", "ratio", "higher", ratio("fsim.early_stops", "fsim.estimates")},
		{"service.submit_ms", "ms", "lower", selfMS("service.submit")},
		{"service.watch_ms", "ms", "lower", selfMS("service.watch")},
		{"service.queue_ms", "ms", "lower", count("service.queue_ms")},
		{"service.exec_ms", "ms", "lower", count("service.exec_ms")},
		{"service.notify_ms", "ms", "lower", count("service.notify_ms")},
		{"service.cache_hit_ratio", "ratio", "higher", ratio("service.cache_hits", "service.cache_lookups")},
		{"service.jobs_executed", "count", "lower", count("service.jobs_executed")},
		{"trace.overhead_pct", "%", "lower", func(a *layerAgg) float64 { return a.overhead }},
		{"trace.spans", "count", "lower", func(a *layerAgg) float64 { return a.spanCount / a.passes }},
	}...)
	return defs
}

// layerMetrics aggregates the traced passes. The tracing overhead is the
// mean op time of a traced pass over that of an untraced pass of the same
// run, minus one, in percent.
func layerMetrics(tr *tracer, passTime []time.Duration, traced []bool) map[string]metric {
	a := &layerAgg{
		selfMS:  make(map[string]float64),
		calls:   make(map[string]float64),
		setupMS: make(map[string]float64),
		counts:  make(map[string]float64),
	}
	var on, off, nOff float64
	for i, d := range passTime {
		if traced[i] {
			on += d.Seconds()
			a.passes++
		} else {
			off += d.Seconds()
			nOff++
		}
	}
	if a.passes > 0 && nOff > 0 {
		a.overhead = ((on/a.passes)/(off/nOff) - 1) * 100
	}
	if a.passes == 0 {
		a.passes = 1
	}
	self := selfTimes(tr.spans)
	for i, s := range tr.spans {
		ms := float64(self[i]) / 1e6
		if s.Pass == 0 {
			a.setupMS[s.Name] += ms
			continue
		}
		a.selfMS[s.Name] += ms
		a.calls[s.Name]++
		a.spanCount++
	}
	for pass, m := range tr.counts {
		if pass == 0 {
			continue
		}
		for k, v := range m {
			a.counts[k] += v
		}
	}
	out := make(map[string]metric)
	for _, d := range layerMetricDefs() {
		out[d.name] = metric{d.value(a), d.unit}
	}
	return out
}
