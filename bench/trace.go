package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval of a traced operation. The root span (Parent 0)
// is the operation at full depth; each child is the harness replaying the
// same inputs against one inner layer's public entry point, so a layer's self
// time is its span minus the span of the layer it calls.
type span struct {
	Op     int64  `json:"op"` // shared by all spans of one operation
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for the root
	Name   string `json:"name"`
	Class  string `json:"class"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer means an untraced run; sampled() is then always false.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) sampled(i int64) bool { return t != nil && i%traceEvery == 0 }

// op is the handle of one traced operation.
type tracedOp struct {
	t     *tracer
	id    int64
	class string
}

// root records the full-depth span of an operation that began at start and
// took d, and returns the handle its layer replays hang under.
func (t *tracer) root(name, class string, start time.Time, d time.Duration) tracedOp {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	id := t.next
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Op: id, ID: id, Name: name, Class: class, Start: s, End: s + d.Nanoseconds()})
	return tracedOp{t: t, id: id, class: class}
}

// layer times fn as a child span of the operation.
func (o tracedOp) layer(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	o.t.mu.Lock()
	defer o.t.mu.Unlock()
	o.t.next++
	s := start.Sub(o.t.t0).Nanoseconds()
	o.t.spans = append(o.t.spans, span{Op: o.id, ID: o.t.next, Parent: o.id, Name: name, Class: o.class, Start: s, End: s + d.Nanoseconds()})
	return d
}

// durations returns the lengths of all spans of a name (class "" = any).
func (t *tracer) durations(name, class string) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out samples
	for _, s := range t.spans {
		if s.Name == name && (class == "" || s.Class == class) {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// report sets a per-layer metric to the median length of the named spans, in
// "ns" or "us".
func (t *tracer) report(m metrics, metric, unit, name, class string) {
	d := t.durations(name, class).median()
	if unit == "ns" {
		m.set(metric, float64(d.Nanoseconds()), unit)
		return
	}
	m.set(metric, us(d), unit)
}

// gaps returns, per operation that has both, the length of span outer minus
// span inner: the self time of outer when inner is the layer it calls.
func (t *tracer) gaps(outer, inner string) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	type pair struct{ o, i int64 }
	byOp := make(map[int64]*pair)
	for _, s := range t.spans {
		if s.Name != outer && s.Name != inner {
			continue
		}
		p := byOp[s.Op]
		if p == nil {
			p = &pair{o: -1, i: -1}
			byOp[s.Op] = p
		}
		if s.Name == outer {
			p.o = s.End - s.Start
		} else {
			p.i = s.End - s.Start
		}
	}
	var out samples
	for _, p := range byOp {
		if p.o >= 0 && p.i >= 0 {
			out = append(out, time.Duration(p.o-p.i))
		}
	}
	return out
}

// write stores the spans as <root>/bench/out/trace-<workload>.json.
func (t *tracer) write(root, workload string) (string, error) {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Every    int    `json:"sampled_one_in"`
		Spans    []span `json:"spans"`
	}{workload, traceEvery, t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	return path, os.WriteFile(path, data, 0o644)
}
