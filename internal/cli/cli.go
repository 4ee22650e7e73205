// Package cli holds the plumbing the fgrepro and fgfleet commands share:
// running a scenario into stdout plus artifact files, and the colf2json
// subcommand.
package cli

import (
	"context"
	"fmt"
	"io"
	"os"

	"fivegsim/internal/obs/colf"
	"fivegsim/internal/serve"
)

// RunScenario runs a validated scenario through serve.Run with the tables
// on stdout and the trace and metrics artifacts in the named files ("" skips
// one). workers bounds the battery's experiment pool. Every create, write,
// and close error is returned: a truncated artifact must never look like a
// successful one.
func RunScenario(sc *serve.Scenario, workers int, stdout io.Writer, tracePath, metricsPath string) (rep serve.Report, err error) {
	out := serve.Outputs{Table: stdout}
	var files []*os.File
	defer func() {
		for _, f := range files {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}()
	for _, a := range []struct {
		path string
		w    *io.Writer
	}{{tracePath, &out.Trace}, {metricsPath, &out.Metrics}} {
		if a.path == "" {
			continue
		}
		f, err := os.Create(a.path)
		if err != nil {
			return serve.Report{}, err
		}
		files = append(files, f)
		*a.w = f
	}
	return serve.Run(context.Background(), sc, workers, out)
}

// Colf2JSON is the colf2json subcommand of prog: it decodes a colf trace
// artifact back to JSON Lines on stdout, byte-identical to what the jsonl
// trace format would have written for the same records. "-" (or no
// argument) reads stdin. It returns the exit status: 2 for a usage error,
// 1 for an open, decode, or close error.
func Colf2JSON(prog string, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) > 1 {
		fmt.Fprintf(stderr, "usage: %s colf2json [file.colf]  (\"-\" or no argument reads stdin)\n", prog)
		return 2
	}
	in := stdin
	var src *os.File
	if len(args) == 1 && args[0] != "-" {
		f, err := os.Open(args[0])
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", prog, err)
			return 1
		}
		src = f
		in = f
	}
	err := colf.DecodeToJSON(in, stdout)
	if src != nil {
		if cerr := src.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		return 1
	}
	return 0
}
