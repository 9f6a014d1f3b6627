package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"tels/internal/blif"
	"tels/internal/core"
	"tels/internal/netcore"
	"tels/internal/network"
	"tels/internal/opt"
	"tels/internal/sim"
)

// flowPipelines are the script × mapper pairs of the tels user path.
var flowPipelines = [][2]string{
	{"raw", "tels"},
	{"algebraic", "tels"},
	{"boolean", "tels"},
	{"boolean", "one2one"},
}

type flowOp struct {
	circuit, script, mapper, key string
}

// flowCold is the tels CLI path: every op parses one circuit's BLIF text,
// runs a script and a mapper, proves the result against the parsed source
// and writes .tln text, with the UNSAT cache reset as in a fresh process.
type flowCold struct {
	ops    []flowOp
	order  []int
	optSHA map[string]string // key → SHA-256 of the script output's BLIF text
}

func (w *flowCold) close()         {}
func (w *flowCold) minPasses() int { return 1 }

func (w *flowCold) prepare(e *env) error {
	for _, c := range e.c.names {
		for _, p := range flowPipelines {
			key := fmt.Sprintf("flow/%s.%s.%s", c, p[0], p[1])
			w.ops = append(w.ops, flowOp{c, p[0], p[1], key})
		}
	}
	w.order = seededOrder(len(w.ops), e.seed)
	w.optSHA = make(map[string]string)
	for _, op := range w.ops {
		core.ResetUnsatCache()
		out, err := runFlow(e, op, e.c.blif[op.circuit], false)
		if err != nil {
			return fmt.Errorf("%s: %w", op.key, err)
		}
		if err := e.c.man.check(op.key, outputEntry(out.tn, out.tln)); err != nil {
			return err
		}
		// Traced passes replay the script pass by pass; each replay must
		// produce the script call's exact network, or it measures another
		// pipeline.
		if !e.traceMode || op.script == "raw" {
			continue
		}
		text, err := blif.WriteString(out.optimized)
		if err != nil {
			return err
		}
		w.optSHA[op.key] = sha(text)
	}
	return nil
}

func (w *flowCold) checkReplay(op flowOp, replayed *network.Network) error {
	text, err := blif.WriteString(replayed)
	if err != nil {
		return err
	}
	if sha(text) != w.optSHA[op.key] {
		return fmt.Errorf("%s: traced opt replay differs from opt.%s", op.key, op.script)
	}
	return nil
}

func (w *flowCold) pass(e *env) ([]outcome, error) {
	outs := make([]outcome, 0, len(w.order))
	for _, i := range w.order {
		op := w.ops[i]
		core.ResetUnsatCache()
		runtime.GC()
		e.tr.op = op.key
		c0 := core.SnapshotCheckCounters()
		t := time.Now()
		out, err := runFlow(e, op, e.c.blif[op.circuit], e.traced)
		o := outcome{lat: time.Since(t), key: op.key, qorKey: op.key}
		if err != nil {
			o.err = fmt.Errorf("%s: %w", op.key, err)
		} else {
			o.out = outputEntry(out.tn, out.tln)
			o.err = e.c.man.check(op.key, o.out)
			if o.err == nil && e.traced && op.script != "raw" {
				o.err = w.checkReplay(op, out.optimized)
			}
			if e.traced {
				addSynthCounters(e.tr, out.stats, c0)
				if op.script != "raw" {
					st := out.optimized.Stats()
					e.tr.add("opt.nodes_out", float64(st.Gates))
					e.tr.add("opt.literals_out", float64(st.Literals))
				}
			}
		}
		outs = append(outs, o)
	}
	return outs, nil
}

type flowOut struct {
	optimized *network.Network
	tn        *core.Network
	stats     core.SynthStats
	tln       string
}

// runFlow is one op of the tels user path. When traced, the script runs
// as a replay of its exported passes so each pass gets its own span.
func runFlow(e *env, op flowOp, text string, traced bool) (flowOut, error) {
	tr := e.tr
	var out flowOut
	sp := tr.begin("blif.parse")
	src, err := blif.Parse(strings.NewReader(text))
	tr.end(sp)
	if err != nil {
		return out, err
	}
	switch {
	case op.script == "raw":
		out.optimized = src.Clone()
	case traced:
		out.optimized = replayScript(tr, op.script, src)
	case op.script == "algebraic":
		out.optimized = opt.Algebraic(src)
	default:
		out.optimized = opt.Boolean(src)
	}
	o := core.DefaultOptions()
	if op.mapper == "one2one" {
		sp = tr.begin("core.one2one")
		out.tn, err = core.OneToOne(out.optimized, o)
	} else {
		sp = tr.begin("core.synthesize")
		out.tn, out.stats, err = core.Synthesize(out.optimized, o)
	}
	tr.end(sp)
	if err != nil {
		return out, err
	}
	if err := prove(tr, src, out.tn); err != nil {
		return out, err
	}
	var sb strings.Builder
	sp = tr.begin("core.write_tln")
	err = core.WriteTLN(&sb, out.tn)
	tr.end(sp)
	out.tln = sb.String()
	return out, err
}

// prove runs sim.Prove under a span and counts BDD proofs.
func prove(tr *tracer, src *network.Network, tn *core.Network) error {
	sp := tr.begin("sim.prove")
	res, err := sim.Prove(src, tn, 1)
	tr.end(sp)
	if err != nil {
		return err
	}
	if res == sim.Proved {
		tr.add("sim.proved", 1)
	}
	return nil
}

// addSynthCounters adds one op's SynthStats and the change of the
// process-wide check counters since c0.
func addSynthCounters(tr *tracer, st core.SynthStats, c0 core.CheckCounters) {
	c := core.SnapshotCheckCounters()
	for name, v := range map[string]int{
		"core.ilp_calls":     st.ILPCalls,
		"core.ilp_feasible":  st.ILPFeasible,
		"core.collapses":     st.Collapses,
		"core.unate_splits":  st.UnateSplits,
		"core.binate_splits": st.BinateSplits,
		"core.theorem2":      st.Theorem2,
	} {
		tr.add(name, float64(v))
	}
	tr.add("core.checks", float64(c.Checks-c0.Checks))
	tr.add("core.unsat_hits", float64(c.UnsatCacheHits-c0.UnsatCacheHits))
	tr.add("core.races", float64(c.Races-c0.Races))
	tr.add("core.budget_bailouts", float64(c.BudgetBailouts-c0.BudgetBailouts))
}

// passRunner wraps the exported opt passes and the netcore crossings in
// spans, counting each pass's return value.
type passRunner struct{ tr *tracer }

func (r passRunner) core(name string, cw *netcore.Network, f func(*netcore.Network) int) {
	sp := r.tr.begin("opt." + name)
	n := f(cw)
	r.tr.end(sp)
	r.tr.add("opt."+name+"_applied", float64(n))
}

func (r passRunner) ptr(name string, nw *network.Network, f func(*network.Network) int) {
	sp := r.tr.begin("opt." + name)
	n := f(nw)
	r.tr.end(sp)
	r.tr.add("opt."+name+"_applied", float64(n))
}

func (r passRunner) from(nw *network.Network) *netcore.Network {
	sp := r.tr.begin("netcore.from")
	defer r.tr.end(sp)
	return netcore.FromNetwork(nw)
}

func (r passRunner) to(cw *netcore.Network) *network.Network {
	sp := r.tr.begin("netcore.to")
	defer r.tr.end(sp)
	return cw.ToNetwork()
}

func eliminate(threshold int) func(*netcore.Network) int {
	return func(cw *netcore.Network) int { return opt.EliminateCore(cw, threshold) }
}

// replayScript runs opt.Algebraic or opt.Boolean step for step through
// the exported passes (internal/opt/script.go), so that each pass and
// each crossing between the pointer and arena networks is a span.
func replayScript(tr *tracer, script string, nw *network.Network) *network.Network {
	r := passRunner{tr}
	out := nw.Clone()
	cw := r.from(out)
	r.core("sweep", cw, opt.SweepCore)
	r.core("simplify", cw, opt.SimplifyNodesCore)
	if script == "algebraic" {
		r.core("eliminate", cw, eliminate(0))
		r.core("simplify", cw, opt.SimplifyNodesCore)
		out = r.to(cw)
		r.ptr("extract", out, opt.Extract)
		cw = r.from(out)
		r.core("resub", cw, opt.ResubCore)
		r.core("sweep", cw, opt.SweepCore)
		r.core("simplify", cw, opt.SimplifyNodesCore)
		r.core("sweep", cw, opt.SweepCore)
		return r.to(cw)
	}
	r.core("eliminate", cw, eliminate(2))
	r.core("simplify", cw, opt.SimplifyNodesCore)
	out = r.to(cw)
	r.ptr("extract", out, opt.Extract)
	cw = r.from(out)
	r.core("simplify", cw, opt.SimplifyNodesCore)
	r.core("eliminate", cw, eliminate(0))
	r.core("simplify", cw, opt.SimplifyNodesCore)
	out = r.to(cw)
	r.ptr("extract", out, opt.Extract)
	cw = r.from(out)
	r.core("resub", cw, opt.ResubCore)
	out = r.to(cw)
	r.ptr("full_simplify", out, opt.SimplifyFull)
	cw = r.from(out)
	r.core("sweep", cw, opt.SweepCore)
	r.core("eliminate", cw, eliminate(25))
	r.core("simplify", cw, opt.SimplifyNodesCore)
	r.core("sweep", cw, opt.SweepCore)
	return r.to(cw)
}
