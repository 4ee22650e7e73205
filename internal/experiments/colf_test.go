package experiments

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"fivegsim/internal/fleet"
	"fivegsim/internal/obs"
	"fivegsim/internal/obs/colf"
)

// newTraceEncoder returns the battery trace encoder for format, as the
// scenario pipeline maps trace_format.
func newTraceEncoder(format string, w io.Writer) obs.TraceEncoder {
	if format == "colf" {
		return colf.NewWriter(w)
	}
	return obs.NewTraceJSONWriter(w)
}

// traceArtifact encodes results' trace in format: WriteTrace, then Flush.
func traceArtifact(t *testing.T, format string, results []Result) string {
	t.Helper()
	var buf bytes.Buffer
	enc := newTraceEncoder(format, &buf)
	if err := WriteTrace(enc, results); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestWriteTraceColfByteIdentical extends the battery artifact contract to
// the binary format: colf bytes are identical between a serial and a
// 4-worker run, and decoding them reproduces the JSONL artifact byte for
// byte.
func TestWriteTraceColfByteIdentical(t *testing.T) {
	run := func(workers int) (colfBytes, jsonlBytes string) {
		cfg := Config{Seed: 5, Quick: true, Obs: obs.New()}
		results, err := RunMany(cfg, obsIDs, workers)
		if err != nil {
			t.Fatal(err)
		}
		return traceArtifact(t, "colf", results), traceArtifact(t, "jsonl", results)
	}

	c1, j1 := run(1)
	c4, _ := run(4)
	if c1 != c4 {
		t.Errorf("colf artifact differs between 1 and 4 workers (%d vs %d bytes)", len(c1), len(c4))
	}

	var decoded bytes.Buffer
	if err := colf.DecodeToJSON(bytes.NewReader([]byte(c1)), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.String() != j1 {
		t.Errorf("decoded colf trace differs from direct JSONL (%d vs %d bytes)",
			decoded.Len(), len(j1))
	}
	if len(c1) >= len(j1) {
		t.Errorf("colf artifact (%d B) not smaller than JSONL (%d B)", len(c1), len(j1))
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

// TestWriteTraceErrorSurfaces: a writer that fails partway must fail the
// battery trace loudly, in both formats — WriteTrace returns the error if
// it hits while records are added, and Flush returns it in every case.
func TestWriteTraceErrorSurfaces(t *testing.T) {
	results, err := RunMany(Config{Seed: 5, Quick: true, Obs: obs.New()}, []string{"table2"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	diskFull := errors.New("disk full")
	for _, format := range []string{"colf", "jsonl"} {
		full := len(traceArtifact(t, format, results))
		for _, n := range []int{0, full / 2, full - 1} {
			enc := newTraceEncoder(format, &failAfter{n: n, err: diskFull})
			if err := WriteTrace(enc, results); err != nil && !errors.Is(err, diskFull) {
				t.Fatalf("%s n=%d: WriteTrace() = %v, want nil or %v", format, n, err, diskFull)
			}
			if err := enc.Flush(); !errors.Is(err, diskFull) {
				t.Errorf("%s n=%d: Flush() = %v, want %v", format, n, err, diskFull)
			}
		}
	}
}

// fleetCampaigns runs one campaign per mix at the given shard count, merging
// each sub-collector into root in mix order — the fgfleet wiring.
func fleetCampaigns(root *obs.Obs, shards int, stream bool) []*fleet.Result {
	rs := make([]*fleet.Result, 0, len(fleet.AllMixes))
	for _, mix := range fleet.AllMixes {
		sub := obs.Sub(root)
		r, err := fleet.Run(fleet.Config{
			Seed: 7, UEs: 403, Shards: shards, Mix: mix, WindowS: 60,
			Obs: sub, Stream: stream,
		})
		if err != nil {
			panic(err)
		}
		root.MergeTagged(sub, obs.S("mix", mix.String()))
		rs = append(rs, r)
	}
	return rs
}

// TestFleetColfSpillShardInvariance is the acceptance gate for the binary
// fleet artifact: the colf encoding of the merged campaign trace is
// byte-identical at shard counts {1,2,4,7}, and decoding reproduces
// exactly the JSONL encoding of the same records.
func TestFleetColfSpillShardInvariance(t *testing.T) {
	trace := func(format string, shards int) string {
		root := obs.New()
		fleetCampaigns(root, shards, false)
		return traceArtifact(t, format, []Result{{ID: "fleet", Obs: root}})
	}

	want := trace("colf", 1)
	for _, shards := range []int{2, 4, 7} {
		if got := trace("colf", shards); got != want {
			t.Errorf("colf artifact differs between 1 and %d shards (%d vs %d bytes)",
				shards, len(want), len(got))
		}
	}

	jsonl := trace("jsonl", 3)
	var decoded bytes.Buffer
	if err := colf.DecodeToJSON(bytes.NewReader([]byte(want)), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.String() != jsonl {
		t.Errorf("decoded colf differs from direct JSONL (%d vs %d bytes)",
			decoded.Len(), len(jsonl))
	}
}

// TestFleetStreamTableMatchesExact: with the population inside the sketch
// capacity the stream table renders the same bytes as the exact table — the
// sketch keeps every session, and the fixed-point means agree with the
// float means at table precision.
func TestFleetStreamTableMatchesExact(t *testing.T) {
	exact := FleetTable(fleetCampaigns(nil, 4, false))
	streamed := FleetStreamTable(fleetCampaigns(nil, 4, true))
	if got, want := streamed.String(), exact.String(); got != want {
		t.Errorf("stream table differs from exact table:\n--- exact ---\n%s--- stream ---\n%s", want, got)
	}
}
