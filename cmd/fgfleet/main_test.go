package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fivegsim/internal/serve"
)

// runCLI drives the full CLI in-process and captures its streams.
func runCLI(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errw)
	return code, out.String(), errw.String()
}

// TestFlagValidation: bad knob values fail fast with exit 2 and a message
// naming the problem, before any campaign starts or file is created.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{"ues zero", []string{"-ues", "0"}, "UEs"},
		{"ues negative", []string{"-ues", "-5"}, "UEs"},
		{"shards negative", []string{"-shards", "-1"}, "Shards"},
		{"window negative", []string{"-window", "-3"}, "WindowS"},
		{"session negative", []string{"-session", "-1"}, "SessionS"},
		{"window nan", []string{"-window", "NaN"}, "WindowS"},
		{"unknown mix", []string{"-mix", "nope"}, "unknown mix"},
		{"bad trace format", []string{"-trace-format", "xml"}, "-trace-format"},
		{"unknown arg", []string{"frobnicate"}, "unknown argument"},
		{"undefined flag", []string{"-frobnicate"}, "frobnicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, "", tc.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", code, stderr)
			}
			if stdout != "" {
				t.Errorf("stdout = %q, want empty on a usage error", stdout)
			}
			if !strings.Contains(stderr, tc.wantMsg) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.wantMsg)
			}
		})
	}
}

// TestValidationPrecedesArtifacts: a bad -ues must not leave a truncated
// trace file behind.
func TestValidationPrecedesArtifacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	code, _, _ := runCLI(t, "", "-ues", "0", "-trace", path)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("trace file was created despite invalid flags (stat err: %v)", err)
	}
}

// TestSmallCampaign: a tiny campaign succeeds and prints the fleet table.
func TestSmallCampaign(t *testing.T) {
	code, stdout, stderr := runCLI(t, "",
		"-ues", "19", "-mix", "mixed", "-window", "20", "-session", "8")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "mixed") {
		t.Errorf("stdout does not contain the mix row:\n%s", stdout)
	}
}

// TestColf2JSON: the colf trace artifact decodes to the exact jsonl
// artifact, from a file argument and from stdin alike, and the error paths
// exit nonzero without a partial-success exit status.
func TestColf2JSON(t *testing.T) {
	dir := t.TempDir()
	colfPath := filepath.Join(dir, "t.colf")
	jsonlPath := filepath.Join(dir, "t.jsonl")
	common := []string{"-ues", "37", "-mix", "mixed", "-window", "20", "-session", "8"}
	if code, _, stderr := runCLI(t, "", append(common, "-trace", colfPath, "-trace-format", "colf")...); code != 0 {
		t.Fatalf("colf campaign exit = %d (stderr: %s)", code, stderr)
	}
	if code, _, stderr := runCLI(t, "", append(common, "-trace", jsonlPath)...); code != 0 {
		t.Fatalf("jsonl campaign exit = %d (stderr: %s)", code, stderr)
	}
	wantB, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	want := string(wantB)

	code, got, stderr := runCLI(t, "", "colf2json", colfPath)
	if code != 0 {
		t.Fatalf("colf2json file exit = %d (stderr: %s)", code, stderr)
	}
	if got != want {
		t.Errorf("colf2json(file) differs from the jsonl artifact")
	}

	colfB, err := os.ReadFile(colfPath)
	if err != nil {
		t.Fatal(err)
	}
	code, got, stderr = runCLI(t, string(colfB), "colf2json")
	if code != 0 {
		t.Fatalf("colf2json stdin exit = %d (stderr: %s)", code, stderr)
	}
	if got != want {
		t.Errorf("colf2json(stdin) differs from the jsonl artifact")
	}

	if code, _, _ := runCLI(t, "", "colf2json", filepath.Join(dir, "missing.colf")); code != 1 {
		t.Errorf("colf2json missing file exit = %d, want 1", code)
	}
	if code, _, _ := runCLI(t, "this is not a colf stream", "colf2json"); code != 1 {
		t.Errorf("colf2json garbage stdin exit = %d, want 1", code)
	}
	if code, _, _ := runCLI(t, "", "colf2json", "a", "b"); code != 2 {
		t.Errorf("colf2json two args exit = %d, want 2", code)
	}
}

// TestMatchesServedBytes: stdout and the -trace/-metrics files equal the
// artifacts serve.RunScenario streams for the equivalent scenario, in both
// trace formats and both campaign modes — this guards the flag→Scenario
// mapping.
func TestMatchesServedBytes(t *testing.T) {
	seed := int64(5)
	cases := []struct {
		name string
		args []string
		sc   serve.FleetScenario
		fmt  string
	}{
		{"jsonl exact all mixes",
			[]string{"-ues", "61", "-window", "20", "-session", "8"},
			serve.FleetScenario{UEs: 61, WindowS: 20, SessionS: 8}, ""},
		{"colf exact one mix",
			[]string{"-ues", "47", "-mix", "mixed", "-shards", "3", "-window", "15", "-session", "6", "-trace-format", "colf"},
			serve.FleetScenario{UEs: 47, Mix: "mixed", Shards: 3, WindowS: 15, SessionS: 6}, "colf"},
		{"jsonl stream one mix",
			[]string{"-ues", "53", "-mix", "low-band", "-shards", "2", "-window", "25", "-session", "7", "-stream"},
			serve.FleetScenario{UEs: 53, Mix: "low-band", Shards: 2, WindowS: 25, SessionS: 7, Stream: true}, ""},
		{"colf stream all mixes",
			[]string{"-ues", "41", "-window", "20", "-session", "8", "-stream", "-trace-format", "colf"},
			serve.FleetScenario{UEs: 41, WindowS: 20, SessionS: 8, Stream: true}, "colf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tracePath := filepath.Join(dir, "trace")
			metricsPath := filepath.Join(dir, "metrics.csv")
			args := append([]string{"-seed", "5", "-trace", tracePath, "-metrics", metricsPath}, tc.args...)
			code, stdout, stderr := runCLI(t, "", args...)
			if code != 0 {
				t.Fatalf("exit = %d (stderr: %s)", code, stderr)
			}
			got := map[string]string{serve.ArtifactTable: stdout}
			for artifact, path := range map[string]string{serve.ArtifactTrace: tracePath, serve.ArtifactMetrics: metricsPath} {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				got[artifact] = string(b)
			}
			for _, artifact := range []string{serve.ArtifactTable, serve.ArtifactTrace, serve.ArtifactMetrics} {
				f := tc.sc
				sc := &serve.Scenario{Kind: "fleet", Seed: &seed, Artifact: artifact, TraceFormat: tc.fmt, Fleet: &f}
				if err := sc.Validate(); err != nil {
					t.Fatal(err)
				}
				var want bytes.Buffer
				if err := serve.RunScenario(context.Background(), sc, &want); err != nil {
					t.Fatal(err)
				}
				if want.Len() == 0 {
					t.Errorf("served %s artifact is empty", artifact)
				}
				if got[artifact] != want.String() {
					t.Errorf("%s: CLI wrote %d bytes, service %d bytes, and they differ",
						artifact, len(got[artifact]), want.Len())
				}
			}
		})
	}
}
