package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Start and End are nanoseconds since process start; Parent
// indexes the enclosing span (-1 for a root); Op names the op the call
// belongs to and Pass the timed pass (0 is set-up).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     string `json:"op"`
	Pass   int    `json:"pass"`
}

// tracer keeps spans and counters in memory while it is on. A nil or
// switched-off tracer records nothing, so untraced runs pay one branch
// per call site.
type tracer struct {
	on     bool
	spans  []span
	stack  []int32
	op     string
	pass   int
	counts map[int]map[string]float64 // pass → counter → value
}

func newTracer() *tracer {
	return &tracer{counts: make(map[int]map[string]float64)}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int32 {
	if t == nil || !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: sinceStart(), Parent: parent, Op: t.op, Pass: t.pass})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; spans close in LIFO order.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = sinceStart()
	t.stack = t.stack[:len(t.stack)-1]
}

// add accumulates a counter for the current pass.
func (t *tracer) add(name string, v float64) {
	if t == nil || !t.on {
		return
	}
	m := t.counts[t.pass]
	if m == nil {
		m = make(map[string]float64)
		t.counts[t.pass] = m
	}
	m[name] += v
}

func sinceStart() int64 { return time.Since(processStart).Nanoseconds() }

// selfTimes returns each span's duration minus the part of its interval
// covered by its direct children (overlapping or adjacent children are
// merged first, so no instant is subtracted twice).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		iv := children[int32(i)]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		open := false
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if open && lo <= curHi {
				curHi = max(curHi, hi)
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = lo, hi, true
		}
		if open {
			covered += curHi - curLo
		}
		self[i] -= covered
	}
	return self
}

// writeSpans stores the spans as JSON lines under dir.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}
