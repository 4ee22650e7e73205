package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"
)

// span is one timed call at a layer boundary. Start and End are Unix
// nanoseconds, so spans from fgbench and from its worker processes share
// one clock. Parent indexes the enclosing span in the same list, -1 for a
// root.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span's layer: its name up to the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory. A nil tracer records nothing, so untraced
// runs pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id; -1 when t is nil.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Now().UnixNano()})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-timed span and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start.UnixNano(), End: end.UnixNano()})
	return len(t.spans) - 1
}

// graft appends spans recorded by another process, re-rooting their roots
// under parent.
func (t *tracer) graft(spans []span, parent int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each layer's self time in seconds: the sum over its
// spans of the span's duration minus the part covered by its children.
// Children of one span may overlap (parallel requests), so the covered part
// is the length of the union of their intervals.
func selfTimes(spans []span) map[string]float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		iv := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		out[s.layer()] += float64(s.End-s.Start-unionLen(iv)) / 1e9
	}
	return out
}

// unionLen returns the total length covered by the intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		if !open || v[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = v[0], v[1], true
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSelfTimeTable prints the per-layer self-time table.
func writeSelfTimeTable(w io.Writer, spans []span) {
	self := selfTimes(spans)
	layers := sortedKeys(self)
	var total float64
	for _, l := range layers {
		total += self[l]
	}
	sort.SliceStable(layers, func(a, b int) bool { return self[layers[a]] > self[layers[b]] })
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "# layer\tself_s\tshare")
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = self[l] / total
		}
		fmt.Fprintf(tw, "# %s\t%.4f\t%.1f%%\n", l, self[l], 100*share)
	}
	tw.Flush()
}

// writeSpans writes the spans as a JSON array to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
