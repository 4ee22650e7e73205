package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
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

// TestUsageErrors: bad invocations exit 2 with a message, running nothing.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{"no args", nil, "usage"},
		{"unknown subcommand", []string{"frobnicate"}, "usage"},
		{"run without ids", []string{"run"}, "experiment id"},
		{"negative parallel", []string{"run", "-parallel", "-2", "table7"}, "-parallel"},
		{"bad trace format", []string{"-trace-format", "xml", "all"}, "-trace-format"},
		{"bad trace format after subcommand", []string{"all", "-trace-format", "xml"}, "-trace-format"},
		{"undefined flag", []string{"-frobnicate", "all"}, "frobnicate"},
		{"unknown experiment", []string{"run", "table7", "nope"}, "unknown experiment"},
		{"gendata too many args", []string{"gendata", "a", "b"}, "gendata [DIR]"},
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

// TestList: the list subcommand prints registered ids, one per line.
func TestList(t *testing.T) {
	code, stdout, stderr := runCLI(t, "", "list")
	if code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "table7\n") || !strings.Contains(stdout, "fig11\n") {
		t.Errorf("list output missing known ids:\n%s", stdout)
	}
}

// TestRunFlagsEitherSide: flags before the subcommand and flags right after
// it (before the ids) produce the same table bytes — the double-parse
// contract.
func TestRunFlagsEitherSide(t *testing.T) {
	code, before, stderr := runCLI(t, "", "-quick", "-seed", "3", "run", "table7")
	if code != 0 {
		t.Fatalf("flags-before exit = %d (stderr: %s)", code, stderr)
	}
	code, after, stderr := runCLI(t, "", "run", "-quick", "-seed", "3", "table7")
	if code != 0 {
		t.Fatalf("flags-after exit = %d (stderr: %s)", code, stderr)
	}
	if before == "" || before != after {
		t.Errorf("flag placement changed the output:\n--- before\n%s--- after\n%s", before, after)
	}
}

// TestArtifacts: -trace/-metrics files are written and the colf trace
// decodes (via colf2json, file and stdin) to the jsonl artifact bytes.
func TestArtifacts(t *testing.T) {
	dir := t.TempDir()
	colfPath := filepath.Join(dir, "t.colf")
	jsonlPath := filepath.Join(dir, "t.jsonl")
	metricsPath := filepath.Join(dir, "m.csv")
	if code, _, stderr := runCLI(t, "", "-quick",
		"-trace", colfPath, "-trace-format", "colf", "-metrics", metricsPath,
		"run", "fig11"); code != 0 {
		t.Fatalf("colf run exit = %d (stderr: %s)", code, stderr)
	}
	if code, _, stderr := runCLI(t, "", "-quick", "-trace", jsonlPath, "run", "fig11"); code != 0 {
		t.Fatalf("jsonl run exit = %d (stderr: %s)", code, stderr)
	}
	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(metrics), "exp,kind,name,field,value\n") {
		t.Errorf("metrics CSV missing header: %q", string(metrics[:min(len(metrics), 40)]))
	}
	wantB, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}

	code, got, stderr := runCLI(t, "", "colf2json", colfPath)
	if code != 0 {
		t.Fatalf("colf2json file exit = %d (stderr: %s)", code, stderr)
	}
	if got != string(wantB) {
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
	if got != string(wantB) {
		t.Errorf("colf2json(stdin) differs from the jsonl artifact")
	}

	if code, _, _ := runCLI(t, "", "colf2json", filepath.Join(dir, "missing.colf")); code != 1 {
		t.Errorf("colf2json missing file exit = %d, want 1", code)
	}
	if code, _, _ := runCLI(t, "not a colf stream", "colf2json"); code != 1 {
		t.Errorf("colf2json garbage stdin exit = %d, want 1", code)
	}
	if code, _, _ := runCLI(t, "", "colf2json", "a", "b"); code != 2 {
		t.Errorf("colf2json two args exit = %d, want 2", code)
	}
}

// TestUnknownExperimentCreatesNothing: an unknown id is rejected before any
// artifact file is created.
func TestUnknownExperimentCreatesNothing(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.jsonl")
	metricsPath := filepath.Join(dir, "m.csv")
	code, _, stderr := runCLI(t, "", "-trace", tracePath, "-metrics", metricsPath, "run", "nope")
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr: %s)", code, stderr)
	}
	for _, path := range []string{tracePath, metricsPath} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s was created despite the unknown id (stat err: %v)", path, err)
		}
	}
}

// TestMatchesServedBytes: stdout and the -trace/-metrics files equal the
// artifacts serve.RunScenario streams for the equivalent scenario, in both
// trace formats — this guards the flag→Scenario mapping. table2 and fig8
// ride along with fig11 and table7 so the trace artifact is not empty.
func TestMatchesServedBytes(t *testing.T) {
	seed := int64(3)
	ids := []string{"fig11", "table7", "table2", "fig8"}
	for _, format := range []string{"jsonl", "colf"} {
		t.Run(format, func(t *testing.T) {
			dir := t.TempDir()
			tracePath := filepath.Join(dir, "trace")
			metricsPath := filepath.Join(dir, "metrics.csv")
			args := append([]string{"-quick", "-seed", "3", "-parallel", "2", "-trace-format", format,
				"-trace", tracePath, "-metrics", metricsPath, "run"}, ids...)
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
				sc := &serve.Scenario{Kind: "battery", Seed: &seed, Quick: true,
					Artifact: artifact, TraceFormat: format, Experiments: ids}
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

// readTree maps every file under root, by slash-separated relative path, to
// its contents.
func readTree(t *testing.T, root string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		tree[filepath.ToSlash(rel)] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestGendata: the quick dataset has the artifact's layout, is a function
// of -seed alone, and a DIR that cannot be created is a runtime error.
func TestGendata(t *testing.T) {
	dir := t.TempDir()
	gen := func(name, seed string) map[string]string {
		t.Helper()
		out := filepath.Join(dir, name)
		code, stdout, stderr := runCLI(t, "", "-quick", "-seed", seed, "gendata", out)
		if code != 0 {
			t.Fatalf("gendata -seed %s exit = %d (stderr: %s)", seed, code, stderr)
		}
		if !strings.Contains(stdout, out) {
			t.Errorf("stdout %q does not name the output directory", stdout)
		}
		return readTree(t, out)
	}
	a, again, other := gen("a", "1"), gen("again", "1"), gen("other", "2")

	var want []string
	for i := range 10 {
		for _, g := range []string{"4g", "5g"} {
			want = append(want, fmt.Sprintf("traces/%s/%03d.csv", g, i))
		}
	}
	for i := range 5 {
		want = append(want, fmt.Sprintf("handoff/drive_%d.csv", i))
	}
	want = append(want, "speedtest/campaign.csv", "web/corpus.csv", "web/measurements.csv",
		"walking/lowband_s20u_minneapolis.csv", "walking/mmwave_s10_annarbor.csv",
		"walking/mmwave_s20u_minneapolis.csv")
	slices.Sort(want)
	var got []string
	for rel := range a {
		got = append(got, rel)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("quick dataset files:\n got %v\nwant %v", got, want)
	}

	if !maps.Equal(a, again) {
		t.Error("the same seed wrote different trees")
	}
	if maps.Equal(a, other) {
		t.Error("a different seed wrote the same tree")
	}

	blocker := filepath.Join(dir, "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runCLI(t, "", "-quick", "gendata", filepath.Join(blocker, "sub")); code != 1 {
		t.Errorf("unwritable DIR exit = %d, want 1 (stderr: %s)", code, stderr)
	}
}
