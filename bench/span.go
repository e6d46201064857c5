package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one op share its id; Parent is the index
// (ID) of the enclosing span, -1 for the op's root.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced round in memory. It is driven by the
// single generator goroutine, so a stack of open spans gives the parents.
// A nil *tracer records nothing: the untraced rounds pass nil.
type tracer struct {
	epoch time.Time
	// chunks holds the spans in fixed-size blocks, so that recording one
	// never copies the ones before it.
	chunks [][]span
	n      int
	open   []int
	op     int
}

const spanChunk = 1 << 12

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(id int) *span { return &t.chunks[id/spanChunk][id%spanChunk] }

// spans returns everything recorded, in begin order.
func (t *tracer) spans() []span {
	out := make([]span, 0, t.n)
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	} else {
		t.op++
	}
	id := t.n
	if id%spanChunk == 0 {
		t.chunks = append(t.chunks, make([]span, 0, spanChunk))
	}
	t.n++
	c := &t.chunks[len(t.chunks)-1]
	*c = append(*c, span{Op: t.op, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.at(id).End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover. Children of one generator goroutine never overlap, so the
// covered part is the sum of their durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// spanMedians returns, per span name, the median over ops of the time one op
// spent in spans of that name, in microseconds: total duration in dur, self
// time in self.
func spanMedians(spans []span) (dur, self map[string]float64) {
	selfNS := selfTimes(spans)
	type key struct {
		name string
		op   int
	}
	perOpDur, perOpSelf := map[key]float64{}, map[key]float64{}
	for i, s := range spans {
		k := key{s.Name, s.Op}
		perOpDur[k] += float64(s.End-s.Start) / 1e3
		perOpSelf[k] += float64(selfNS[i]) / 1e3
	}
	collect := func(perOp map[key]float64) map[string]float64 {
		byName := map[string][]float64{}
		for k, v := range perOp {
			byName[k.name] = append(byName[k.name], v)
		}
		out := make(map[string]float64, len(byName))
		for name, vs := range byName {
			out[name] = median(vs)
		}
		return out
	}
	return collect(perOpDur), collect(perOpSelf)
}

// writeSpans writes the spans of every traced workload as one JSON object
// keyed by workload name.
func writeSpans(path string, byWorkload map[string][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(byWorkload)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
