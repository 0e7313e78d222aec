package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a public entry point
// of the program. Spans of one request, churn step or pipeline
// iteration share Trace; Parent is the span that caused this one
// (0 for a root). Times are nanoseconds since the recorder started.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps every span of a traced run in memory until the run
// ends; nothing is evicted or sampled. A nil *recorder records nothing,
// so untraced code paths call it unconditionally.
type recorder struct {
	origin time.Time
	ids    atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// id allocates a span or trace identifier (never 0).
func (r *recorder) id() uint64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// add records a finished span whose identifier was allocated with id,
// so children could name it as their parent while it was open.
func (r *recorder) add(trace, id, parent uint64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// leaf records a span with a fresh identifier and no children.
func (r *recorder) leaf(trace, parent uint64, name string, start, end time.Time) {
	r.add(trace, r.id(), parent, name, start, end)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of it its children cover; overlapping
// children are counted once.
func selfTimes(spans []span) []spanStat {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*spanStat{}
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalMs += float64(s.End-s.Start) / 1e6
		st.SelfMs += float64(s.End-s.Start-covered(s, children[s.ID])) / 1e6
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	slices.SortFunc(out, func(a, b spanStat) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	var total int64
	cur := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// writeSpans writes every span, one JSON object per line, followed by
// nothing else; the per-name self-time table goes to w.
func (r *recorder) writeSpans(path string, w io.Writer) error {
	r.mu.Lock()
	spans := slices.Clone(r.spans)
	r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "spans: %d written to %s\n", len(spans), path)
	for _, st := range selfTimes(spans) {
		fmt.Fprintf(w, "span %-28s count %8d  total %12.3f ms  self %12.3f ms\n",
			st.Name, st.Count, st.TotalMs, st.SelfMs)
	}
	return nil
}
