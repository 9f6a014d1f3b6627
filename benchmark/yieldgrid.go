package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"time"

	"tels/internal/blif"
	"tels/internal/core"
	"tels/internal/fsim"
	"tels/internal/network"
	"tels/internal/opt"
	"tels/internal/sim"
)

// yieldModels are the grid's defect models, keyed as in the manifest.
var yieldModels = []struct {
	key   string
	model fsim.DefectModel
}{
	{"weight0.4", fsim.WeightVariation{V: 0.4}},
	{"weight0.8", fsim.WeightVariation{V: 0.8}},
	{"weight1.2", fsim.WeightVariation{V: 1.2}},
	{"drift0.8", fsim.ThresholdDrift{V: 0.8}},
	{"stuck0.01", fsim.StuckAt{P: 0.01}},
}

// yieldDeltaOns are the grid's synthesis margins δon.
var yieldDeltaOns = []int{0, 2}

// yieldMaxTrials caps each estimate's Monte-Carlo trials.
const yieldMaxTrials = 400

// crossTrials and crossVectors size the scalar cross-check of each grid
// point: its first trials' defects, on sampled vectors.
const crossTrials, crossVectors = 4, 64

type yieldPoint struct {
	net   *yieldNet
	model fsim.DefectModel
	seed  int64
	key   string
}

type yieldNet struct {
	src     *network.Network
	tn      *core.Network
	session *fsim.YieldSession
	key     string
	out     entry
}

// yieldGrid times serial fsim.YieldSession.Estimate calls over circuits ×
// defect models × δon. Networks and sessions are built in set-up.
type yieldGrid struct {
	points []yieldPoint
	order  []int
}

func (w *yieldGrid) close()         {}
func (w *yieldGrid) minPasses() int { return 1 }

// pointSeed derives a grid point's Monte-Carlo seed from its key, so the
// work of a point does not depend on the run's seed.
func pointSeed(key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int64(h.Sum64() >> 1)
}

func (w *yieldGrid) prepare(e *env) error {
	for _, c := range e.c.names {
		if c == "i10" {
			continue // one i10 estimate would own the run
		}
		src, err := blif.ParseString(e.c.blif[c])
		if err != nil {
			return err
		}
		optimized := opt.Algebraic(src)
		for _, don := range yieldDeltaOns {
			o := core.DefaultOptions()
			o.DeltaOn = don
			tn, _, err := core.Synthesize(optimized, o)
			if err != nil {
				return fmt.Errorf("%s: %w", c, err)
			}
			if _, err := sim.Prove(src, tn, 1); err != nil {
				return fmt.Errorf("%s: %w", c, err)
			}
			n := &yieldNet{src: src, tn: tn, key: fmt.Sprintf("yield/%s.don%d", c, don)}
			n.out = outputEntry(tn, tn.String())
			if err := e.c.man.check(n.key, n.out); err != nil {
				return err
			}
			e.tr.on = e.traceMode
			sp := e.tr.begin("fsim.session")
			n.session, err = fsim.NewYieldSession(src, tn, fsim.YieldConfig{Seed: 1})
			e.tr.end(sp)
			e.tr.on = false
			if err != nil {
				return fmt.Errorf("%s: %w", n.key, err)
			}
			for _, m := range yieldModels {
				key := n.key + "." + m.key
				w.points = append(w.points, yieldPoint{n, m.model, pointSeed(key), key})
			}
		}
	}
	w.order = seededOrder(len(w.points), e.seed)
	for _, p := range w.points {
		if err := crossCheck(p, p.net.tn); err != nil {
			return err
		}
		o := w.estimate(e, p)
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

func (w *yieldGrid) estimate(e *env, p yieldPoint) outcome {
	e.tr.op = p.key
	t := time.Now()
	sp := e.tr.begin("fsim.estimate")
	rep, err := p.net.session.Estimate(p.model, fsim.YieldConfig{MaxTrials: yieldMaxTrials, Seed: p.seed})
	e.tr.end(sp)
	o := outcome{lat: time.Since(t), key: p.key, qorKey: p.net.key, out: p.net.out}
	if err != nil {
		o.err = fmt.Errorf("%s: %w", p.key, err)
		return o
	}
	data, err := json.Marshal(rep)
	if err != nil {
		o.err = err
		return o
	}
	got := p.net.out
	got.SHA = sha(string(data))
	o.err = e.c.man.check(p.key, got)
	e.tr.add("fsim.estimates", 1)
	e.tr.add("fsim.trials", float64(rep.Trials))
	if rep.EarlyStopped {
		e.tr.add("fsim.early_stops", 1)
	}
	return o
}

func (w *yieldGrid) pass(e *env) ([]outcome, error) {
	outs := make([]outcome, 0, len(w.order))
	for _, i := range w.order {
		runtime.GC()
		outs = append(outs, w.estimate(e, w.points[i]))
	}
	return outs, nil
}

// crossCheck replays the first crossTrials defects a grid point's
// Estimate draws (same model, same seed stream) and compares the packed
// kernel's outputs with a scalar evaluation on crossVectors sampled
// vectors: for weight variation the scalar path of sim.EvalPerturbed
// (noise drawn by sim.PerturbFor, evaluated by core.Evaluator), a direct
// gate-by-gate evaluation of the defect otherwise. The packed kernel runs on the
// point's network, the scalar evaluation on tn (the same network, except
// in tests).
func crossCheck(p yieldPoint, tn *core.Network) error {
	tsim, err := fsim.CompileThresh(p.net.tn)
	if err != nil {
		return err
	}
	ev, err := tn.NewEvaluator()
	if err != nil {
		return err
	}
	inputs := make([]string, len(p.net.src.Inputs))
	for i, in := range p.net.src.Inputs {
		inputs[i] = in.Name
	}
	vrng := rand.New(rand.NewSource(p.seed + 1))
	vecs := make([]map[string]bool, crossVectors)
	for v := range vecs {
		vecs[v] = make(map[string]bool, len(inputs))
		for _, in := range inputs {
			vecs[v][in] = vrng.Intn(2) == 1
		}
	}
	batch, err := fsim.Pack(inputs, vecs)
	if err != nil {
		return err
	}
	drng := rand.New(rand.NewSource(p.seed))
	prng := rand.New(rand.NewSource(p.seed))
	for trial := 0; trial < crossTrials; trial++ {
		d := p.model.Draw(tsim, drng)
		packed, err := tsim.EvalDefect(batch, d, nil)
		if err != nil {
			return err
		}
		var pert *sim.Perturbation
		if wv, ok := p.model.(fsim.WeightVariation); ok {
			pert = sim.PerturbFor(ev, wv.V, prng)
			if fmt.Sprint(pert.Noise()) != fmt.Sprint(d.WeightNoise) {
				return fmt.Errorf("%s: scalar and packed weight noise differ", p.key)
			}
		}
		for v, in := range vecs {
			var want []bool
			if pert != nil {
				want, err = ev.EvalPerturbed(in, pert.Noise(), nil)
			} else {
				want = evalDefect(tsim.GateOrder(), tn.Outputs, d, in)
			}
			if err != nil {
				return err
			}
			for o, bit := range want {
				if fsim.Bit(packed[o], v) != bit {
					return fmt.Errorf("%s: trial %d vector %d output %d: packed %t, scalar %t",
						p.key, trial, v, o, !bit, bit)
				}
			}
		}
	}
	return nil
}

// evalDefect evaluates the gates in order under a defect, summing the
// (noisy) weights in ascending input order as the §VI-C model defines.
func evalDefect(order []*core.Gate, outputs []string, d *fsim.Defect, in map[string]bool) []bool {
	val := make(map[string]bool, len(in)+len(order))
	for k, v := range in {
		val[k] = v
	}
	for gi, g := range order {
		var fire bool
		switch {
		case d.Stuck != nil && d.Stuck[gi] >= 0:
			fire = d.Stuck[gi] == 1
		case d.WeightNoise != nil || d.ThresholdNoise != nil:
			t := float64(g.T)
			if d.ThresholdNoise != nil {
				t += d.ThresholdNoise[gi]
			}
			sum := 0.0
			for i, name := range g.Inputs {
				if val[name] {
					w := float64(g.Weights[i])
					if d.WeightNoise != nil {
						w += d.WeightNoise[gi][i]
					}
					sum += w
				}
			}
			fire = sum >= t
		default:
			sum := 0
			for i, name := range g.Inputs {
				if val[name] {
					sum += g.Weights[i]
				}
			}
			fire = sum >= g.T
		}
		val[g.Name] = fire
	}
	out := make([]bool, len(outputs))
	for i, name := range outputs {
		out[i] = val[name]
	}
	return out
}
