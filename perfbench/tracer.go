package main

import (
	"encoding/json"
	"io"
	"runtime/metrics"
	"strings"
	"time"
)

// A tracer records one span around every layer call the harness makes:
// its name, start, end and parent, plus counts read at the same
// boundaries (simulations run, heap bytes and objects allocated). Spans
// stay in memory and are written out once the run has ended. A nil
// tracer records nothing, so the untraced timed pass runs the same body
// code with a nil check per boundary.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	// sims reads the testbed's simulation count.
	sims func() uint64
	// paused accumulates harness-only work (forced collections for the
	// retained-heap probe) that the traced wall time must not include.
	paused time.Duration
	sample []metrics.Sample
}

// span is one layer call. Layer is the name's prefix up to the first
// dot: "core.Fig4For" belongs to layer "core".
type span struct {
	Name       string `json:"name"`
	Layer      string `json:"layer"`
	Parent     int    `json:"parent"`
	StartNs    int64  `json:"start_ns"`
	EndNs      int64  `json:"end_ns"`
	Sims       uint64 `json:"sims"`
	AllocBytes uint64 `json:"alloc_bytes"`
	AllocObjs  uint64 `json:"alloc_objects"`

	sims0, bytes0, objs0 uint64
}

// Heap-allocation counters read at span boundaries. Tiny allocations
// are counted apart by the runtime; their sum matches
// runtime.MemStats.Mallocs without stopping the world.
var allocMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
}

func newTracer(sims func() uint64) *tracer {
	t := &tracer{origin: time.Now(), sims: sims, sample: make([]metrics.Sample, len(allocMetrics))}
	for i, name := range allocMetrics {
		t.sample[i].Name = name
	}
	return t
}

func (t *tracer) allocs() (bytes, objs uint64) {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64(), t.sample[1].Value.Uint64() + t.sample[2].Value.Uint64()
}

// begin opens a span nested in the innermost open one and returns its
// handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	layer, _, _ := strings.Cut(name, ".")
	s := span{Name: name, Layer: layer, Parent: parent, sims0: t.sims()}
	s.bytes0, s.objs0 = t.allocs()
	s.StartNs = int64(time.Since(t.origin))
	t.spans = append(t.spans, s)
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.EndNs = int64(time.Since(t.origin))
	bytes, objs := t.allocs()
	s.AllocBytes, s.AllocObjs = bytes-s.bytes0, objs-s.objs0
	s.Sims = t.sims() - s.sims0
	t.open = t.open[:len(t.open)-1]
}

// pause runs fn, a harness-only probe, and books its duration so the
// traced wall time can leave it out.
func (t *tracer) pause(fn func()) {
	start := time.Now()
	fn()
	t.paused += time.Since(start)
}

func (s *span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// layerTotal sums one layer's spans: calls, inclusive and self time,
// simulations and allocations. The bodies never nest a layer's call in
// another call of the same layer, so inclusive sums do not double count.
type layerTotal struct {
	calls                int
	seconds, selfSeconds float64
	sims                 uint64
	allocBytes, allocObj uint64
}

func (t *tracer) layerTotals() map[string]*layerTotal {
	out := map[string]*layerTotal{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		lt := out[s.Layer]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Layer] = lt
		}
		lt.calls++
		lt.seconds += s.seconds()
		lt.selfSeconds += float64(s.EndNs-s.StartNs-child[i]) / 1e9
		lt.sims += s.Sims
		lt.allocBytes += s.AllocBytes
		lt.allocObj += s.AllocObjs
	}
	return out
}

// sum totals the inclusive seconds and simulations of every span named
// name.
func (t *tracer) sum(name string) (seconds float64, sims uint64) {
	for i := range t.spans {
		if t.spans[i].Name == name {
			seconds += t.spans[i].seconds()
			sims += t.spans[i].Sims
		}
	}
	return seconds, sims
}

// writeJSON writes the span list, one span per line.
func (t *tracer) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return nil
}
