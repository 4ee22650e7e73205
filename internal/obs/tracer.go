// Package obs is the deterministic observability layer of the simulation:
// a sim-time Tracer (structured span/event records) and a Metrics registry
// (counters, gauges, fixed-bucket histograms), both stdlib-only.
//
// Determinism contract. Every record is stamped from the engine clock (or
// the model's own simulated time), never the wall clock, and collectors are
// merged in a caller-defined deterministic order (trace order inside
// abr.EvaluateWorkers, sorted experiment-id order in experiments.RunMany).
// The rendered artifacts are therefore byte-identical across runs and
// across -parallel worker counts — observability obeys the same contract
// it exists to audit, and fgvet's walltime check holds over this package.
//
// Cost contract. A nil *Tracer, *Metrics, or *Obs is a valid "disabled"
// collector: every method is a nil-check no-op, and hot paths additionally
// guard emission with Enabled() so the disabled path performs no field
// marshalling and no allocations (asserted by the ReportAllocs benchmarks
// here and in internal/abr and internal/transport).
package obs

// maxFields bounds the structured fields a Record carries. The array is
// fixed-size so a Record is a plain value: building one allocates nothing,
// and tag fields appended by MergeTagged (trace index, algorithm, …) still
// fit after the four or so fields a subsystem emits.
const maxFields = 8

// FieldKind says how a Field renders. The kind is explicit rather than
// inferred from the value: a legitimately-empty string field ("" carrier
// name, say) must still render as "" and never as the number 0. The zero
// kind is KindNum so numeric fields stay zero-cost to build.
type FieldKind uint8

const (
	// KindNum renders the field's Num value.
	KindNum FieldKind = iota
	// KindStr renders the field's Str value (quoted).
	KindStr
)

// Field is one key/value pair of a Record: a number (KindNum) or a string
// (KindStr), selected by the explicit Kind bit.
type Field struct {
	Key  string
	Kind FieldKind
	Num  float64
	Str  string
}

// F returns a numeric field.
//
//fgvet:noalloc
func F(key string, v float64) Field { return Field{Key: key, Num: v} }

// S returns a string field.
//
//fgvet:noalloc
func S(key, v string) Field { return Field{Key: key, Kind: KindStr, Str: v} }

// Record is one structured trace entry: a point event (Dur == 0) or a span
// (Dur > 0, with At the span's start). Records are plain values; build them
// with Ev or Span and chain With to attach fields.
type Record struct {
	// At is the simulation time (seconds) the event happened or the span
	// began. Never wall time.
	At float64
	// Dur is the span duration in seconds; zero for point events.
	Dur float64
	// Sub is the emitting subsystem ("rrc", "transport", "abr", …).
	Sub string
	// Name is the event name within the subsystem.
	Name string

	n      int
	fields [maxFields]Field
}

// Ev returns a point-event record at sim time `at`.
//
//fgvet:noalloc
func Ev(at float64, sub, name string) Record {
	return Record{At: at, Sub: sub, Name: name}
}

// Span returns a span record covering [at, at+dur).
//
//fgvet:noalloc
func Span(at, dur float64, sub, name string) Record {
	return Record{At: at, Dur: dur, Sub: sub, Name: name}
}

// With returns the record with f appended. Fields beyond the fixed capacity
// are dropped silently; subsystems emit few enough that this only bounds
// pathological tag stacking.
//
//fgvet:noalloc
func (r Record) With(f Field) Record {
	if r.n < maxFields {
		r.fields[r.n] = f
		r.n++
	}
	return r
}

// Fields returns the record's fields in emission order. The slice aliases
// the record's storage; treat it as read-only.
func (r *Record) Fields() []Field { return r.fields[:r.n] }

// Tracer accumulates sim-time records in emission order. A nil *Tracer is
// the disabled tracer: Emit is an allocation-free no-op and Enabled reports
// false, so hot paths can skip even building the Record. Records stay in
// memory — O(events) — until an artifact encodes them (see TraceEncoder);
// fleet campaigns too large for that stream through fleet.Spill instead.
type Tracer struct {
	recs []Record
}

// NewTracer returns an empty enabled tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Enabled reports whether records are being collected.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit appends a record. Emitting to a nil tracer is a no-op.
//
//fgvet:noalloc
func (t *Tracer) Emit(r Record) {
	if t == nil {
		return
	}
	t.recs = append(t.recs, r)
}

// Len returns the number of buffered records (0 for a nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.recs)
}

// Records returns the buffered records in emission order. The slice
// aliases the tracer's storage; treat it as read-only.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	return t.recs
}

// AppendTagged appends every record of other (in order), each with the
// given tags attached, preserving determinism as long as callers merge
// sub-tracers in a deterministic order. A nil receiver or source is a
// no-op.
func (t *Tracer) AppendTagged(other *Tracer, tags ...Field) {
	if t == nil || other == nil {
		return
	}
	for _, r := range other.recs {
		for _, tag := range tags {
			r = r.With(tag)
		}
		t.Emit(r)
	}
}
