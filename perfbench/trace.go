package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans in memory around the benchmark's own calls into
// the program's layers. A nil *tracer and a nil *span are valid and
// record nothing, which is how the untraced runs call the same code.
type tracer struct {
	t0  time.Time
	ids *atomic.Int64 // shared by tracers that export into one file

	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span. Spans of one operation share op; a root
// span is its own op.
type spanRec struct {
	Name   string
	Layer  string
	ID     int64
	Parent int64
	Op     int64
	Tid    int
	Start  time.Duration
	End    time.Duration
}

// span is an open span.
type span struct {
	tr  *tracer
	rec spanRec
}

func newTracer(t0 time.Time, ids *atomic.Int64) *tracer {
	return &tracer{t0: t0, ids: ids}
}

// root opens the span of one operation on track tid.
func (t *tracer) root(name, layer string, tid int) *span {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	return &span{tr: t, rec: spanRec{Name: name, Layer: layer, ID: id, Op: id, Tid: tid, Start: time.Since(t.t0)}}
}

// child opens a span caused by s.
func (s *span) child(name, layer string) *span {
	if s == nil {
		return nil
	}
	return &span{tr: s.tr, rec: spanRec{Name: name, Layer: layer, ID: s.tr.ids.Add(1),
		Parent: s.rec.ID, Op: s.rec.Op, Tid: s.rec.Tid, Start: time.Since(s.tr.t0)}}
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.rec.End = time.Since(s.tr.t0)
	s.tr.add(s.rec)
}

func (t *tracer) add(r spanRec) {
	t.mu.Lock()
	t.spans = append(t.spans, r)
	t.mu.Unlock()
}

func (t *tracer) records() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// selfTime sums, per layer, each span's duration minus the part of it
// that its child spans cover.
func selfTime(spans []spanRec) map[string]time.Duration {
	kids := make(map[int64][]spanRec)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, cur := time.Duration(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.Layer] += s.End - s.Start - covered
	}
	return self
}

// writeChromeTrace writes spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open.
func writeChromeTrace(path string, spans []spanRec) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.Name, Cat: s.Layer, Ph: "X", Pid: 1, Tid: s.Tid,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
