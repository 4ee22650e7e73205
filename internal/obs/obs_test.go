package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestNilCollectorsAreNoOps(t *testing.T) {
	var o *Obs
	if o.Enabled() {
		t.Fatal("nil Obs reports enabled")
	}
	if o.Trace() != nil || o.Meter() != nil {
		t.Fatal("nil Obs returned live sub-collectors")
	}
	o.Trace().Emit(Ev(1, "x", "y"))
	o.Meter().Inc("c")
	o.Meter().Gauge("g", 1)
	o.Meter().Hist("h", []float64{1}).Observe(0.5)
	o.MergeTagged(New(), F("t", 1))
	if o.Trace().Len() != 0 {
		t.Fatal("nil tracer accumulated records")
	}
	if got := o.Meter().Snapshot(); got != nil {
		t.Fatalf("nil metrics snapshot = %v, want nil", got)
	}
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, "e", nil); err != nil || buf.Len() != 0 {
		t.Fatalf("nil tracer wrote %q (err %v)", buf.String(), err)
	}
	if err := WriteMetricsCSV(&buf, "e", nil); err != nil || buf.Len() != 0 {
		t.Fatalf("nil metrics wrote %q (err %v)", buf.String(), err)
	}
}

func TestDisabledEmitAllocationFree(t *testing.T) {
	var tr *Tracer
	var m *Metrics
	h := m.Hist("h", []float64{1, 2})
	avg := testing.AllocsPerRun(100, func() {
		if tr.Enabled() {
			tr.Emit(Ev(1, "rrc", "transition").With(S("from", "IDLE")))
		}
		m.Add("c", 1)
		h.Observe(3)
	})
	if avg != 0 {
		t.Fatalf("disabled path allocates %v allocs/op, want 0", avg)
	}
}

func TestRecordFieldsAndCapacity(t *testing.T) {
	r := Ev(2.5, "abr", "chunk")
	for i := 0; i < maxFields+3; i++ {
		r = r.With(F("k", float64(i)))
	}
	if got := len(r.Fields()); got != maxFields {
		t.Fatalf("fields = %d, want capped at %d", got, maxFields)
	}
}

func TestHistogramBuckets(t *testing.T) {
	m := NewMetrics()
	h := m.Hist("h", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 10, 11, 1e9} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 2} // <=1: {0.5,1}; <=10: {5,10}; +Inf: {11,1e9}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if h.N != 6 {
		t.Fatalf("N = %d, want 6", h.N)
	}
}

func TestMergeTaggedDeterministic(t *testing.T) {
	build := func() *Obs {
		parent := New()
		for i := 0; i < 3; i++ {
			sub := Sub(parent)
			sub.Trace().Emit(Ev(float64(i), "s", "e").With(F("v", float64(i)*0.1)))
			sub.Meter().Add("s.count", 1)
			sub.Meter().Gauge("s.last", float64(i))
			sub.Meter().Hist("s.h", []float64{1}).Observe(float64(i))
			parent.MergeTagged(sub, F("idx", float64(i)))
		}
		return parent
	}
	var a, b bytes.Buffer
	o1, o2 := build(), build()
	if err := WriteTraceJSON(&a, "x", o1.Trace()); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceJSON(&b, "x", o2.Trace()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("trace artifacts differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	a.Reset()
	b.Reset()
	if err := WriteMetricsCSV(&a, "x", o1.Meter()); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetricsCSV(&b, "x", o2.Meter()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("metrics artifacts differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	if got := o1.Meter().Snapshot(); len(got) == 0 {
		t.Fatal("merged metrics snapshot empty")
	}
	// Records carry the merge tag.
	if recs := o1.Trace().Records(); len(recs) != 3 {
		t.Fatalf("merged records = %d, want 3", len(recs))
	} else if f := recs[2].Fields(); f[len(f)-1].Key != "idx" || f[len(f)-1].Num != 2 {
		t.Fatalf("last record missing idx tag: %+v", recs[2])
	}
}

func TestWriteTraceJSONShape(t *testing.T) {
	tr := NewTracer()
	tr.Emit(Span(1.5, 0.25, "abr", "chunk").With(F("idx", 3)).With(S("algo", "BB\"A")))
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, "fig17", tr); err != nil {
		t.Fatal(err)
	}
	want := `{"exp":"fig17","at":1.5,"dur":0.25,"sub":"abr","name":"chunk","idx":3,"algo":"BB\"A"}` + "\n"
	if buf.String() != want {
		t.Fatalf("trace line = %q, want %q", buf.String(), want)
	}
}

func TestWriteMetricsCSVShape(t *testing.T) {
	m := NewMetrics()
	m.Add("b.count", 2)
	m.Add("a.count", 1)
	m.Gauge("z.g", math.Inf(1))
	m.Hist("h", []float64{0.5}).Observe(0.2)
	var buf bytes.Buffer
	if err := WriteMetricsCSV(&buf, "e1", m); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	want := []string{
		"e1,counter,a.count,,1",
		"e1,counter,b.count,,2",
		"e1,gauge,z.g,,+Inf",
		"e1,hist,h,le=0.5,1",
		"e1,hist,h,le=+Inf,0",
		"e1,hist,h,sum,0.2",
		"e1,hist,h,count,1",
	}
	if len(lines) != len(want) {
		t.Fatalf("lines = %v, want %v", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

// TestFieldKinds pins the explicit kind bit: an empty string field renders
// as "" (not the number 0), and a numeric zero renders as 0 (not "").
func TestFieldKinds(t *testing.T) {
	tr := NewTracer()
	tr.Emit(Ev(1, "s", "e").With(S("carrier", "")).With(F("zero", 0)))
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, "", tr); err != nil {
		t.Fatal(err)
	}
	want := `{"at":1,"sub":"s","name":"e","carrier":"","zero":0}` + "\n"
	if buf.String() != want {
		t.Fatalf("line = %q, want %q", buf.String(), want)
	}
	if F("k", 1).Kind != KindNum || S("k", "v").Kind != KindStr {
		t.Fatal("F/S constructors set the wrong kind")
	}
}

// TestNonFiniteJSONRoundTrip asserts every trace line stays valid JSON when
// records carry non-finite values, and that the quoted tokens round-trip
// through strconv.ParseFloat to the original values.
func TestNonFiniteJSONRoundTrip(t *testing.T) {
	tr := NewTracer()
	tr.Emit(Ev(0.5, "s", "e").
		With(F("pinf", math.Inf(1))).
		With(F("ninf", math.Inf(-1))).
		With(F("nan", math.NaN())).
		With(F("fin", 1.25)))
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, "x", tr); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimRight(buf.String(), "\n")
	if !json.Valid([]byte(line)) {
		t.Fatalf("trace line is not valid JSON: %q", line)
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(line), &obj); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	parse := func(key string) float64 {
		t.Helper()
		s, ok := obj[key].(string)
		if !ok {
			t.Fatalf("%s decoded as %T, want quoted string", key, obj[key])
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("ParseFloat(%q): %v", s, err)
		}
		return v
	}
	if v := parse("pinf"); !math.IsInf(v, 1) {
		t.Fatalf("pinf round-tripped to %v", v)
	}
	if v := parse("ninf"); !math.IsInf(v, -1) {
		t.Fatalf("ninf round-tripped to %v", v)
	}
	if v := parse("nan"); !math.IsNaN(v) {
		t.Fatalf("nan round-tripped to %v", v)
	}
	if v, ok := obj["fin"].(float64); !ok || v != 1.25 {
		t.Fatalf("finite value decoded as %v (%T), want 1.25", obj["fin"], obj["fin"])
	}
}

// TestTraceJSONWriterSplicesRawBlocks: lines rendered by separate
// segment writers and spliced with WriteRawBlocks, mixed with direct Adds,
// equal rendering the whole sequence in one pass — JSONL is the
// block-size-1 case of the segment/stitch contract fleet.Spill relies on.
func TestTraceJSONWriterSplicesRawBlocks(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 23; i++ {
		tr.Emit(Span(float64(i), 0.5, "fleet", "session").
			With(F("ue", float64(i))).
			With(S("mix", "mmwave")))
	}
	var want bytes.Buffer
	if err := WriteTraceJSON(&want, "fleet", tr); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	jw := NewTraceJSONWriter(&got)
	recs := tr.Records()
	for lo := 0; lo < len(recs); {
		hi := min(lo+1+lo%7, len(recs)) // ragged segments
		if lo%2 == 0 {
			var seg bytes.Buffer
			sw := NewTraceJSONWriter(&seg)
			for _, r := range recs[lo:hi] {
				if err := sw.Add("fleet", r); err != nil {
					t.Fatal(err)
				}
			}
			if err := sw.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := jw.WriteRawBlocks(seg.Bytes()); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, r := range recs[lo:hi] {
				if err := jw.Add("fleet", r); err != nil {
					t.Fatal(err)
				}
			}
		}
		lo = hi
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("spliced JSONL differs from one-pass JSONL:\n%s\nvs\n%s", got.String(), want.String())
	}
}

// failAfter accepts n bytes, then fails every write with err.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k := f.n
		f.n = 0
		return k, f.err
	}
	f.n -= len(p)
	return len(p), nil
}

// TestTraceJSONWriterErrorSurfaces: a failing writer must fail the
// encoder loudly, never truncate the artifact silently. The first error
// is sticky across Add, WriteRawBlocks, and Flush, whether the writer
// fails while records are still being added or only at the final Flush.
func TestTraceJSONWriterErrorSurfaces(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 200; i++ {
		tr.Emit(Ev(float64(i), "s", "e").With(F("v", float64(i))))
	}
	var full bytes.Buffer
	if err := WriteTraceJSON(&full, "x", tr); err != nil {
		t.Fatal(err)
	}
	diskFull := errors.New("disk full")
	for _, tc := range []struct {
		n       int
		failAdd bool
	}{{0, true}, {100, true}, {full.Len() - 1, false}} {
		jw := NewTraceJSONWriter(&failAfter{n: tc.n, err: diskFull})
		var addErr error
		for _, r := range tr.Records() {
			if addErr = jw.Add("x", r); addErr != nil {
				break
			}
		}
		if tc.failAdd != (addErr != nil) || (addErr != nil && !errors.Is(addErr, diskFull)) {
			t.Fatalf("n=%d: Add() = %v, want failure %t with %v", tc.n, addErr, tc.failAdd, diskFull)
		}
		if err := jw.Flush(); !errors.Is(err, diskFull) {
			t.Fatalf("n=%d: Flush() = %v, want %v", tc.n, err, diskFull)
		}
		if err := jw.WriteRawBlocks([]byte("{}\n")); !errors.Is(err, diskFull) {
			t.Fatalf("n=%d: WriteRawBlocks after failure = %v, want %v", tc.n, err, diskFull)
		}
		if err := jw.Add("x", Ev(0, "s", "e")); !errors.Is(err, diskFull) {
			t.Fatalf("n=%d: Add after failure = %v, want %v", tc.n, err, diskFull)
		}
	}
}

func TestMetricsMergeOrderIndependentInputs(t *testing.T) {
	// Two merges applying the same sub-registries in the same order must
	// produce identical snapshots even though map layout differs per run.
	mk := func() *Metrics {
		m := NewMetrics()
		for i, name := range []string{"x", "y", "z"} {
			m.Add("c."+name, float64(i)+0.1)
		}
		return m
	}
	a, b := NewMetrics(), NewMetrics()
	a.Merge(mk())
	a.Merge(mk())
	b.Merge(mk())
	b.Merge(mk())
	sa, sb := a.Snapshot(), b.Snapshot()
	if len(sa) != len(sb) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("snapshot[%d]: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}
