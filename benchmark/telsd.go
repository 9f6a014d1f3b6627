package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"tels/internal/blif"
	"tels/internal/core"
	"tels/internal/service"
	"tels/internal/sim"
)

// errSSEFallback marks a telsd op whose client fell back from the event
// stream to polling.
var errSSEFallback = errors.New("client fell back from SSE to polling")

// telsdYieldCircuits each get one yield job in the telsd mix.
var telsdYieldCircuits = []string{"9sym", "alu2s", "cm85a", "cmb", "comp8", "parity16", "rd84", "t481x"}

// telsdExtraRepeats distinct requests appear three times in a pass, the
// rest twice.
const telsdExtraRepeats = 12

type telsdReq struct {
	key, circuit string
	yield        bool
	env          service.SubmitEnvelope
}

// telsdMix drives an in-process service.Manager behind service.NewHandler
// on loopback HTTP with one closed-loop client that keeps one job in
// flight and waits on the SSE event stream. Each pass starts from a fresh
// manager and a reset UNSAT cache, so first occurrences miss the result
// cache and repeats hit it.
type telsdMix struct {
	reqs []telsdReq
	seq  []int

	srv    *http.Server
	served chan struct{}
	h      swapHandler
	tp     *countingTransport
	cl     *service.Client
	// wrap, when set, wraps each manager's handler (tests use it to
	// break the event stream).
	wrap func(http.Handler) http.Handler
}

// swapHandler lets every pass install a fresh manager behind one
// listener.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

// countingTransport counts job polls: Client.Watch polls only after
// falling back from the event stream.
type countingTransport struct {
	base  http.RoundTripper
	polls atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet && isJobPoll(r.URL.Path) {
		t.polls.Add(1)
	}
	return t.base.RoundTrip(r)
}

// isJobPoll matches GET /v1/jobs/{id}, the polling route of Client.Wait.
func isJobPoll(path string) bool {
	id, ok := strings.CutPrefix(path, "/v1/jobs/")
	return ok && id != "" && !strings.Contains(id, "/")
}

// telsdSequence lists n distinct requests twice each and extra of them
// (at most n) a third time, shuffled. Against a fresh manager each first occurrence
// misses and every repeat hits, so every pass of a sequence has the same
// hit share, (n+extra)/(2n+extra).
func telsdSequence(n, extra int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	extra = min(extra, n)
	seq := make([]int, 0, 2*n+extra)
	for i := 0; i < n; i++ {
		seq = append(seq, i, i)
	}
	seq = append(seq, rng.Perm(n)[:extra]...)
	rng.Shuffle(len(seq), func(a, b int) { seq[a], seq[b] = seq[b], seq[a] })
	return seq
}

func (w *telsdMix) prepare(e *env) error {
	w.reqs = telsdRequests(e.c)
	w.seq = telsdSequence(len(w.reqs), telsdExtraRepeats, e.seed)
	if err := w.start(); err != nil {
		return err
	}
	// Dry run: every distinct request once, its output proved here
	// against the parsed source.
	mgr := w.fresh()
	defer mgr.Close()
	for _, r := range w.reqs {
		job, _, err := w.submitWatch(e, r)
		if err != nil {
			return fmt.Errorf("%s: %w", r.key, err)
		}
		if job.Result == nil {
			return fmt.Errorf("%s: job %s ended %s: %s", r.key, job.ID, job.State, job.Error)
		}
		src, err := blif.ParseString(e.c.blif[r.circuit])
		if err != nil {
			return err
		}
		tn, err := core.ParseTLNString(job.Result.TLN)
		if err != nil {
			return fmt.Errorf("%s: %w", r.key, err)
		}
		if _, err := sim.Prove(src, tn, 1); err != nil {
			return fmt.Errorf("%s: %w", r.key, err)
		}
		if _, err := w.verify(e, r, job); err != nil {
			return err
		}
	}
	return nil
}

// telsdRequests is the distinct request set: a synth job per circuit
// (i10 left out so that no op dominates a pass) and a yield job per
// telsdYieldCircuits entry.
func telsdRequests(c *corpus) []telsdReq {
	// Marshalling these specs of strings and numbers cannot fail.
	var reqs []telsdReq
	for _, name := range c.names {
		if name == "i10" {
			continue
		}
		spec, _ := json.Marshal(service.SynthSpec{BLIF: c.blif[name], Fanin: 3})
		reqs = append(reqs, telsdReq{
			key: "telsd/" + name + ".algebraic.psi3", circuit: name,
			env: service.SubmitEnvelope{Kind: "synth", Spec: spec},
		})
	}
	one := 1
	for _, name := range telsdYieldCircuits {
		spec, _ := json.Marshal(service.YieldJobSpec{
			SynthSpec: service.SynthSpec{BLIF: c.blif[name], Fanin: 3, DeltaOn: &one},
			Yield:     service.YieldSpec{Model: "weight", V: 0.8, MaxTrials: 200, Seed: 11},
		})
		reqs = append(reqs, telsdReq{
			key: "telsd/yield." + name + ".weight0.8.don1", circuit: name, yield: true,
			env: service.SubmitEnvelope{Kind: "yield", Spec: spec},
		})
	}
	return reqs
}

func (w *telsdMix) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.h.h.Store(http.NotFoundHandler())
	w.srv = &http.Server{Handler: &w.h}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.srv.Serve(ln) // http.ErrServerClosed once close stops it
	}()
	w.tp = &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	w.cl = &service.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: w.tp}}
	return nil
}

// fresh installs a new single-worker manager with an empty result cache
// and resets the process-wide UNSAT cache.
func (w *telsdMix) fresh() *service.Manager {
	core.ResetUnsatCache()
	mgr := service.New(service.Config{Workers: 1, DefaultTimeout: opDeadline})
	h := service.NewHandler(mgr)
	if w.wrap != nil {
		h = w.wrap(h)
	}
	w.h.h.Store(h)
	return mgr
}

func (w *telsdMix) minPasses() int { return 8 }

func (w *telsdMix) close() {
	if w.srv == nil {
		return
	}
	w.srv.Close()
	<-w.served
	w.tp.base.(*http.Transport).CloseIdleConnections()
}

// submitWatch is one op: submit, then follow the job's event stream to
// its terminal state. It returns when the client saw that state.
func (w *telsdMix) submitWatch(e *env, r telsdReq) (service.Job, time.Time, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	polls := w.tp.polls.Load()
	sp := e.tr.begin("service.submit")
	job, err := w.cl.SubmitEnvelope(ctx, r.env)
	e.tr.end(sp)
	if err != nil {
		return job, time.Now(), err
	}
	sp = e.tr.begin("service.watch")
	job, err = w.cl.Watch(ctx, job.ID, nil)
	e.tr.end(sp)
	saw := time.Now()
	if err == nil && w.tp.polls.Load() != polls {
		err = errSSEFallback
	}
	return job, saw, err
}

// telsdOutput is what the manifest pins of a job: the .tln text, plus the
// yield report for yield jobs.
func telsdOutput(r telsdReq, res *service.Result) string {
	if !r.yield || res.Yield == nil {
		return res.TLN
	}
	rep, _ := json.Marshal(res.Yield) // finite numbers only: trials > 0
	return res.TLN + "\n" + string(rep)
}

// verify checks a finished job: done, verified by the daemon, and equal
// to the manifest, which pins the output proved in set-up.
func (w *telsdMix) verify(e *env, r telsdReq, job service.Job) (entry, error) {
	res := job.Result
	if job.State != service.StateDone || res == nil {
		return entry{}, fmt.Errorf("%s: job %s ended %s: %s", r.key, job.ID, job.State, job.Error)
	}
	if res.Verified != "proved" && res.Verified != "simulated" {
		return entry{}, fmt.Errorf("%s: daemon verification %q", r.key, res.Verified)
	}
	if r.yield && res.Yield == nil {
		return entry{}, fmt.Errorf("%s: yield job without a report", r.key)
	}
	got := entry{Gates: res.Stats.Gates, Levels: res.Stats.Levels, Area: res.Stats.Area, SHA: sha(telsdOutput(r, res))}
	if err := e.c.man.check(r.key, got); err != nil {
		return got, err
	}
	return got, nil
}

func (w *telsdMix) pass(e *env) ([]outcome, error) {
	mgr := w.fresh()
	defer mgr.Close()
	outs := make([]outcome, 0, len(w.seq))
	for _, i := range w.seq {
		r := w.reqs[i]
		e.tr.op = r.key
		c0 := core.SnapshotCheckCounters()
		t := time.Now()
		job, saw, err := w.submitWatch(e, r)
		o := outcome{lat: saw.Sub(t), err: err, key: r.key, qorKey: r.key}
		if err != nil {
			o.err = fmt.Errorf("%s: %w", r.key, err)
		} else {
			o.out, o.err = w.verify(e, r, job)
		}
		if o.err == nil && e.traced {
			addJobCounters(e.tr, job, saw, c0)
		}
		outs = append(outs, o)
	}
	if e.traced {
		m, err := w.cl.Metrics(context.Background())
		if err != nil {
			return nil, err
		}
		e.tr.add("service.cache_hits", float64(m["cache_hits"]))
		e.tr.add("service.cache_lookups", float64(m["cache_hits"]+m["cache_misses"]))
		e.tr.add("service.jobs_executed", float64(m["jobs_executed"]))
	}
	return outs, nil
}

// addJobCounters records a job's service timestamps and, for work the
// daemon did rather than served from cache, its synthesis and yield
// counters.
func addJobCounters(tr *tracer, job service.Job, saw time.Time, c0 core.CheckCounters) {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	tr.add("service.queue_ms", ms(job.Started.Sub(job.Created)))
	tr.add("service.exec_ms", ms(job.Finished.Sub(job.Started)))
	tr.add("service.notify_ms", ms(saw.Sub(job.Finished)))
	res := job.Result
	if res.CacheHit {
		return
	}
	addSynthCounters(tr, res.SynthStats, c0)
	if y := res.Yield; y != nil {
		tr.add("fsim.estimates", 1)
		tr.add("fsim.trials", float64(y.Trials))
		if y.EarlyStopped {
			tr.add("fsim.early_stops", 1)
		}
	}
}
