package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer of the
// program. Spans of one grid point, plan or request share Op. Counts
// carries the deterministic work the call reported (simulated cycles,
// circuit gates, stalls), so timings can be read against it.
type Span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"` // 0 for a root span
	Name   string           `json:"name"`
	Kind   string           `json:"kind,omitempty"` // strategy or request class
	Op     int64            `json:"op"`
	Start  int64            `json:"start_ns"` // since the recorder's origin
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so the untraced path pays only a nil check.
type Recorder struct {
	origin time.Time
	mu     sync.Mutex
	next   int64
	spans  []Span
}

func newRecorder() *Recorder { return &Recorder{origin: time.Now()} }

// Begin opens a span and returns it; finish it with End.
func (r *Recorder) Begin(name, kind string, op, parent int64) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return &Span{ID: id, Parent: parent, Name: name, Kind: kind, Op: op, Start: time.Since(r.origin).Nanoseconds()}
}

// End closes s and keeps it.
func (r *Recorder) End(s *Span) {
	if r == nil || s == nil {
		return
	}
	s.End = time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, *s)
	r.mu.Unlock()
}

// id returns a span's ID for use as a parent (0 when not tracing).
func (s *Span) id() int64 {
	if s == nil {
		return 0
	}
	return s.ID
}

// count adds n to one of the span's work counts.
func (s *Span) count(name string, n int64) {
	if s == nil {
		return
	}
	if s.Counts == nil {
		s.Counts = make(map[string]int64)
	}
	s.Counts[name] += n
}

// WriteFile writes the kept spans as JSON lines.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans loads a file written by WriteFile.
func readSpans(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []Span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s Span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("spans %s: %w", path, err)
		}
		spans = append(spans, s)
	}
	return spans, nil
}

// selfTimes returns each span's self time in seconds, indexed like
// spans: its duration minus the part of it that its child spans cover.
func selfTimes(spans []Span) []float64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		covered := unionWithin(children[s.ID], s.Start, s.End)
		out[i] = float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// unionWithin is the length of the union of ivs clipped to [lo, hi].
func unionWithin(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// layerTotals sums self time (seconds), call counts and work counts per
// span name, and self time per (name, kind).
type layerTotals struct {
	self   map[string]float64
	kind   map[[2]string]float64
	calls  map[string]int64
	counts map[[2]string]int64
}

func totals(spans []Span) layerTotals {
	t := layerTotals{
		self: map[string]float64{}, kind: map[[2]string]float64{},
		calls: map[string]int64{}, counts: map[[2]string]int64{},
	}
	for i, st := range selfTimes(spans) {
		s := spans[i]
		t.self[s.Name] += st
		t.kind[[2]string{s.Name, s.Kind}] += st
		t.calls[s.Name]++
		for c, n := range s.Counts {
			t.counts[[2]string{s.Name, c}] += n
		}
	}
	return t
}
