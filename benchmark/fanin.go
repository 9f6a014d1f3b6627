package main

import (
	"fmt"
	"runtime"
	"time"

	"tels/internal/core"
	"tels/internal/mcnc"
	"tels/internal/network"
	"tels/internal/opt"
	"tels/internal/sim"
)

// faninRange is the fanin restriction ψ axis (the paper's Fig. 10).
var faninRange = []int{3, 4, 5, 6, 7, 8}

type faninOp struct {
	circuit, script string
	psi             int
	in              *network.Network // the script output
	key             string
}

// faninSweep times core.Synthesize alone over ψ on the algebraic and
// boolean script outputs of the mcnc.Build corpus, built in set-up. The
// UNSAT cache is reset per op; outputs are checked outside the timer.
type faninSweep struct {
	ops   []faninOp
	order []int
	src   map[string]*network.Network
}

func (w *faninSweep) close()         {}
func (w *faninSweep) minPasses() int { return 1 }

func (w *faninSweep) prepare(e *env) error {
	w.src = make(map[string]*network.Network)
	for _, c := range e.c.names {
		src := mcnc.Build(c)
		w.src[c] = src
		for _, script := range []string{"algebraic", "boolean"} {
			var in *network.Network
			if script == "algebraic" {
				in = opt.Algebraic(src)
			} else {
				in = opt.Boolean(src)
			}
			for _, psi := range faninRange {
				key := fmt.Sprintf("fanin/%s.%s.psi%d", c, script, psi)
				w.ops = append(w.ops, faninOp{c, script, psi, in, key})
			}
		}
	}
	w.order = seededOrder(len(w.ops), e.seed)
	for _, op := range w.ops {
		core.ResetUnsatCache()
		tn, _, err := synthesize(nil, op)
		if err != nil {
			return fmt.Errorf("%s: %w", op.key, err)
		}
		if _, err := sim.Prove(w.src[op.circuit], tn, 1); err != nil {
			return fmt.Errorf("%s: %w", op.key, err)
		}
		if err := w.check(e, op, tn, tn.String()); err != nil {
			return err
		}
	}
	return nil
}

func synthesize(tr *tracer, op faninOp) (*core.Network, core.SynthStats, error) {
	o := core.DefaultOptions()
	o.Fanin = op.psi
	sp := tr.begin("core.synthesize")
	defer tr.end(sp)
	return core.Synthesize(op.in, o)
}

// check compares an output with the manifest and with the golden file of
// the corpus gate at ψ=3. The manifest pins the bytes sim.Prove accepted
// in set-up.
func (w *faninSweep) check(e *env, op faninOp, tn *core.Network, tln string) error {
	if err := e.c.man.check(op.key, outputEntry(tn, tln)); err != nil {
		return err
	}
	if op.psi == 3 {
		if err := e.c.checkGolden(op.circuit, op.script, tn, tln); err != nil {
			return err
		}
	}
	return nil
}

func (w *faninSweep) pass(e *env) ([]outcome, error) {
	outs := make([]outcome, 0, len(w.order))
	for _, i := range w.order {
		op := w.ops[i]
		core.ResetUnsatCache()
		runtime.GC()
		e.tr.op = op.key
		c0 := core.SnapshotCheckCounters()
		t := time.Now()
		tn, st, err := synthesize(e.tr, op)
		o := outcome{lat: time.Since(t), key: op.key, qorKey: op.key}
		if err != nil {
			o.err = fmt.Errorf("%s: %w", op.key, err)
		} else {
			tln := tn.String()
			o.out = outputEntry(tn, tln)
			o.err = w.check(e, op, tn, tln)
			addSynthCounters(e.tr, st, c0)
		}
		outs = append(outs, o)
	}
	return outs, nil
}
