package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced code paths pay one nil
// check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID and the function that closes it.
func (t *tracer) begin(name string, parent, req int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.t0)
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON under path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of its interval that its child spans cover
// (overlapping children are counted once, and children are clipped to
// the parent's interval).
func selfTimes(spans []span) []time.Duration {
	idx := make(map[int64]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			cur, open = v, true
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if open {
		total += cur.b - cur.a
	}
	return total
}

// selfByName groups self times by span name, in milliseconds.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], ms(self[i]))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
