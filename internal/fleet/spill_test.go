package fleet_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"fivegsim/internal/fleet"
	"fivegsim/internal/obs"
	"fivegsim/internal/obs/colf"
)

// The spill acceptance gates: the shard-parallel spill path must produce
// byte-identical artifacts to the central accumulate-then-encode oracle, in
// both formats, at any shard count, in both exact and stream mode, across
// sequential multi-mix campaigns whose colf block boundaries straddle
// campaign edges.

// spillBlockRecs is deliberately tiny so a 403-UE campaign (every UE
// sampled) crosses many block boundaries per shard, exercising the head /
// aligned-middle / tail stitching; it does not divide 403, so boundaries
// also straddle the three campaigns.
const spillBlockRecs = 37

// newEncoder returns the central oracle's encoder for format.
func newEncoder(format string, w io.Writer) obs.TraceEncoder {
	if format == "colf" {
		return colf.NewWriterSize(w, spillBlockRecs)
	}
	return obs.NewTraceJSONWriter(w)
}

// newSpill returns the shard-parallel spill for format.
func newSpill(format string, w io.Writer) *fleet.Spill {
	if format == "colf" {
		return fleet.NewColfSpillSize(w, "fleet", spillBlockRecs)
	}
	return fleet.NewJSONLSpill(w, "fleet")
}

// encodeRecords is the oracle's encode step: every record under the
// "fleet" scope, in order, then one Flush.
func encodeRecords(t *testing.T, enc obs.TraceEncoder, recs []obs.Record) {
	t.Helper()
	for _, r := range recs {
		if err := enc.Add("fleet", r); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
}

// centralTrace renders the reference artifact serially: each campaign's
// reduce emits into a sub-collector, MergeTagged stamps the mix tag, and
// the accumulated records are encoded once by enc.
func centralTrace(t *testing.T, enc obs.TraceEncoder, shards int, stream bool) {
	t.Helper()
	root := obs.New()
	for _, mix := range fleet.AllMixes {
		sub := obs.Sub(root)
		mustRun(t, fleet.Config{
			Seed: 7, UEs: 403, Shards: shards, Mix: mix, WindowS: 60,
			Obs: sub, Stream: stream,
		})
		root.MergeTagged(sub, obs.S("mix", mix.String()))
	}
	encodeRecords(t, enc, root.Trace().Records())
}

// runSpill runs the three mixes' campaigns through one shard-parallel
// spill: per-shard segment encoding, stitched in shard order. It returns
// the first Run error and leaves Close to the caller.
func runSpill(sp *fleet.Spill, shards int, stream bool) error {
	var first error
	for _, mix := range fleet.AllMixes {
		_, err := fleet.Run(fleet.Config{
			Seed: 7, UEs: 403, Shards: shards, Mix: mix, WindowS: 60,
			Stream: stream,
			Spill:  sp, SpillTags: []obs.Field{obs.S("mix", mix.String())},
		})
		if first == nil {
			first = err
		}
	}
	return first
}

// spilledTrace renders the artifact through the shard-parallel spill.
func spilledTrace(t *testing.T, format string, shards int, stream bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	sp := newSpill(format, &buf)
	if err := runSpill(sp, shards, stream); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSpillMatchesCentral is the core gate: shard-side spill bytes equal
// central-oracle bytes for every (format, shard count) combination.
func TestSpillMatchesCentral(t *testing.T) {
	for _, format := range []string{"colf", "jsonl"} {
		var want bytes.Buffer
		centralTrace(t, newEncoder(format, &want), 3, false)
		if want.Len() == 0 {
			t.Fatalf("%s: central reference artifact is empty", format)
		}
		for _, shards := range []int{1, 2, 4, 7} {
			if got := spilledTrace(t, format, shards, false); !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s: spilled artifact at %d shards differs from central (%d vs %d bytes)",
					format, shards, len(got), want.Len())
			}
		}
	}
}

// TestSpillStreamMatchesExact: stream-mode campaigns spill the same bytes
// as exact-mode ones — the sampled UE set and values are identical, only
// the collection path (stats fold vs results slice) differs.
func TestSpillStreamMatchesExact(t *testing.T) {
	for _, format := range []string{"colf", "jsonl"} {
		want := spilledTrace(t, format, 3, false)
		for _, shards := range []int{1, 2, 4, 7} {
			if got := spilledTrace(t, format, shards, true); !bytes.Equal(got, want) {
				t.Errorf("%s: stream-mode spill at %d shards differs from exact (%d vs %d bytes)",
					format, shards, len(got), len(want))
			}
		}
	}
}

// TestSpillDefaultBlockSize covers the re-blocking degenerate case: with
// the default 4096-record blocks, a 403-record campaign never fills one,
// so every shard segment is pure remainder and the stitcher does all the
// encoding — the bytes must still match the central oracle exactly.
func TestSpillDefaultBlockSize(t *testing.T) {
	var want bytes.Buffer
	centralTrace(t, colf.NewWriter(&want), 4, false)

	var got bytes.Buffer
	sp := fleet.NewColfSpill(&got, "fleet")
	if err := runSpill(sp, 4, false); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("default-block spill differs from central (%d vs %d bytes)", got.Len(), want.Len())
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

// TestSpillCloseSurfacesWriteError: a writer that fails partway must fail
// the spill loudly, never leave a silently truncated artifact. Whether the
// failure hits a campaign's stitch (Run returns it) or only the final
// flush, Close returns the writer's error, in both formats.
func TestSpillCloseSurfacesWriteError(t *testing.T) {
	diskFull := errors.New("disk full")
	for _, format := range []string{"colf", "jsonl"} {
		full := len(spilledTrace(t, format, 2, false))
		for _, n := range []int{0, full / 2, full - 1} {
			sp := newSpill(format, &failAfter{n: n, err: diskFull})
			if err := runSpill(sp, 2, false); err != nil && !errors.Is(err, diskFull) {
				t.Fatalf("%s n=%d: Run() = %v, want nil or %v", format, n, err, diskFull)
			}
			if err := sp.Close(); !errors.Is(err, diskFull) {
				t.Errorf("%s n=%d: Close() = %v, want %v", format, n, err, diskFull)
			}
		}
	}
}

// TestSpillWithObsKeepsMetricsAndSkipsTracer: running with both Obs and
// Spill must not double-emit — the tracer stays empty (records go through
// the spill) while metrics histograms still fold normally.
func TestSpillWithObsKeepsMetricsAndSkipsTracer(t *testing.T) {
	var buf bytes.Buffer
	sp := fleet.NewJSONLSpill(&buf, "fleet")
	o := obs.New()
	mustRun(t, fleet.Config{
		Seed: 7, UEs: 101, Shards: 2, Mix: fleet.MixMixed, WindowS: 60,
		Obs: o, Spill: sp,
	})
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if n := o.Trace().Len(); n != 0 {
		t.Errorf("tracer holds %d records; spill mode must bypass it", n)
	}
	if buf.Len() == 0 {
		t.Error("spill artifact is empty")
	}
	h := o.Meter().Hist("fleet.tput_mbps", nil)
	if h.N != 101 {
		t.Errorf("tput histogram folded %d sessions, want 101", h.N)
	}
}
