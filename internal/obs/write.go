package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"
)

// formatFloat renders a float deterministically: shortest representation
// that round-trips ('g', precision -1), the same on every platform, so
// artifacts diff cleanly across runs and worker counts. This is the CSV
// form; JSON values go through appendFloatJSON, which must additionally
// quote the non-finite tokens.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// appendFloatJSON appends v as a JSON value: the shortest round-trip
// decimal for finite values, and a quoted token for the three non-finite
// ones. Bare +Inf, -Inf, and NaN are not JSON tokens — a line containing
// one fails every JSON parser — so they render as the strings "+Inf",
// "-Inf", and "NaN", which strconv.ParseFloat accepts back verbatim.
func appendFloatJSON(buf []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(buf, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(buf, `"-Inf"`...)
	case math.IsNaN(v):
		return append(buf, `"NaN"`...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// AppendRecordJSON appends one record as a JSON object (no trailing
// newline) to buf and returns the extended slice. It is the single
// rendering point for trace records: TraceJSONWriter calls it, and the
// colf decoder's JSONL export renders through a TraceJSONWriter, which is
// what makes "decoded colf" and "direct JSONL" byte-identical by
// construction.
//
// scope, when non-empty, renders as the leading "exp" key (the experiment
// id in a merged battery artifact). Field kinds are explicit: a KindStr
// field renders quoted even when its value is the empty string.
func AppendRecordJSON(buf []byte, scope string, r *Record) []byte {
	buf = append(buf, '{')
	if scope != "" {
		buf = append(buf, `"exp":`...)
		buf = strconv.AppendQuote(buf, scope)
		buf = append(buf, ',')
	}
	buf = append(buf, `"at":`...)
	buf = appendFloatJSON(buf, r.At)
	if r.Dur != 0 {
		buf = append(buf, `,"dur":`...)
		buf = appendFloatJSON(buf, r.Dur)
	}
	buf = append(buf, `,"sub":`...)
	buf = strconv.AppendQuote(buf, r.Sub)
	buf = append(buf, `,"name":`...)
	buf = strconv.AppendQuote(buf, r.Name)
	for _, f := range r.Fields() {
		buf = append(buf, ',')
		buf = strconv.AppendQuote(buf, f.Key)
		buf = append(buf, ':')
		if f.Kind == KindStr {
			buf = strconv.AppendQuote(buf, f.Str)
		} else {
			buf = appendFloatJSON(buf, f.Num)
		}
	}
	return append(buf, '}')
}

// TraceEncoder is the contract every trace artifact encoder meets:
// TraceJSONWriter (JSON Lines) and colf.Writer (binary blocks). Callers
// Add scoped records in artifact order, may splice pre-encoded output of a
// segment encoder of the same format with WriteRawBlocks, and must Flush
// once at the end. The first error is sticky: every later call returns it
// and writes nothing, so a failing writer fails the artifact loudly rather
// than truncating it silently.
type TraceEncoder interface {
	// Add encodes one record under scope.
	Add(scope string, r Record) error
	// WriteRawBlocks splices segment output verbatim. Formats with
	// multi-record blocks require the encoder to sit on a block boundary.
	WriteRawBlocks(raw []byte) error
	// Flush encodes anything buffered and drains it to the writer.
	Flush() error
}

// WriteTraceJSON writes the tracer's records as JSON Lines, one object per
// record, in emission order:
//
//	{"exp":"fig17","at":12.5,"sub":"abr","name":"chunk","idx":3,...}
//
// Numeric fields render via the shortest round-trip form; a nil tracer
// writes nothing. The output is byte-identical for identical records,
// independent of host or worker count.
func WriteTraceJSON(w io.Writer, scope string, t *Tracer) error {
	jw := NewTraceJSONWriter(w)
	for _, r := range t.Records() {
		if err := jw.Add(scope, r); err != nil {
			return err
		}
	}
	return jw.Flush()
}

// TraceJSONWriter is the JSON Lines TraceEncoder. Every line is
// self-contained, so its blocks are single records: a segment rendered by
// another TraceJSONWriter splices in at any point.
type TraceJSONWriter struct {
	bw  *bufio.Writer
	buf []byte
	err error
}

// NewTraceJSONWriter returns a JSON Lines encoder writing to w. Callers
// must Flush when done.
func NewTraceJSONWriter(w io.Writer) *TraceJSONWriter {
	return &TraceJSONWriter{bw: bufio.NewWriter(w)}
}

// Add renders one record as a line.
func (j *TraceJSONWriter) Add(scope string, r Record) error {
	if j.err != nil {
		return j.err
	}
	j.buf = AppendRecordJSON(j.buf[:0], scope, &r)
	j.buf = append(j.buf, '\n')
	_, j.err = j.bw.Write(j.buf)
	return j.err
}

// WriteRawBlocks splices lines another TraceJSONWriter rendered.
func (j *TraceJSONWriter) WriteRawBlocks(raw []byte) error {
	if j.err != nil {
		return j.err
	}
	_, j.err = j.bw.Write(raw)
	return j.err
}

// Flush drains the writer's buffer to the underlying io.Writer.
func (j *TraceJSONWriter) Flush() error {
	if j.err != nil {
		return j.err
	}
	j.err = j.bw.Flush()
	return j.err
}

// WriteMetricsCSV writes the registry's snapshot as CSV rows
//
//	exp,kind,name,field,value
//
// without a header (so per-experiment registries concatenate into one
// artifact; callers write the header once via MetricsCSVHeader). Rows come
// out in Snapshot order — counters, gauges, histograms, each sorted by
// name — so the artifact is deterministic. A nil registry writes nothing.
func WriteMetricsCSV(w io.Writer, scope string, m *Metrics) error {
	if m == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, p := range m.Snapshot() {
		bw.WriteString(scope)
		bw.WriteByte(',')
		bw.WriteString(p.Kind)
		bw.WriteByte(',')
		bw.WriteString(p.Name)
		bw.WriteByte(',')
		bw.WriteString(p.Field)
		bw.WriteByte(',')
		bw.WriteString(formatFloat(p.Value))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// MetricsCSVHeader is the column header matching WriteMetricsCSV rows.
const MetricsCSVHeader = "exp,kind,name,field,value\n"
