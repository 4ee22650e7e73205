// Command fgrepro regenerates the tables and figures of "A Variegated Look
// at 5G in the Wild" (SIGCOMM 2021) from the simulation substrate.
//
// Usage:
//
//	fgrepro list                 # list experiment ids
//	fgrepro run fig11 table7     # run specific experiments
//	fgrepro all                  # run everything
//	fgrepro all -parallel 0      # run everything on all cores
//	fgrepro colf2json t.colf     # decode a colf trace to JSON Lines
//	fgrepro gendata data         # write the artifact-style CSV datasets
//
// Flags:
//
//	-seed N         random seed (default 1)
//	-quick          reduced repeats for a fast pass (gendata: the reduced
//	                sample dataset)
//	-parallel N     run N experiments concurrently (0 = GOMAXPROCS, 1 = serial)
//	-stats          per-experiment wall time and event counts on stderr
//	-trace FILE     write sim-time trace records to FILE
//	-trace-format F trace encoding: jsonl (JSON Lines) or colf (columnar
//	                binary; decode with the colf2json subcommand)
//	-metrics FILE   write the metrics snapshot (CSV) to FILE
//
// fgrepro is a thin adapter over the scenario runner that fgservd serves
// from: the flags become a battery serve.Scenario, which is validated and
// run by serve.Run. Its stdout and artifacts are therefore the bytes
// fgservd returns for the same scenario. Invalid flag values (negative
// -parallel, an unknown -trace-format, an unknown experiment id) fail fast
// with exit status 2 before any experiment runs or artifact file is
// created.
//
// Output is byte-identical for any -parallel value: experiments fan out
// over a worker pool but are reassembled in sorted id order, and every
// experiment is deterministic given -seed. The -trace/-metrics artifacts
// share that contract — enabling them never changes the tables, and the
// artifact bytes are identical for any worker count, in either trace
// format. Decoding a colf trace with colf2json reproduces the jsonl
// artifact byte for byte.
//
// gendata writes the study's datasets as CSV files under DIR (default
// "data"), mirroring the released artifact's layout: throughput traces,
// walking power traces, a Speedtest campaign, the web corpus with its
// 4G/5G measurements, and the driving handoff logs. The tree is
// deterministic given -seed; -quick writes a reduced sample.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"fivegsim/internal/cli"
	"fivegsim/internal/dataset"
	"fivegsim/internal/experiments"
	"fivegsim/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point: flags and streams in, exit status out.
// Every failure path returns (2 for usage errors, 1 for runtime errors)
// instead of calling os.Exit, so deferred closes always execute and tests
// can drive the full CLI in-process.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fgrepro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "random seed")
	quick := fs.Bool("quick", false, "reduced repeats for a fast pass")
	parallel := fs.Int("parallel", 1, "experiments to run concurrently (0 = GOMAXPROCS)")
	stats := fs.Bool("stats", false, "print per-experiment wall time and event counts to stderr")
	traceOut := fs.String("trace", "", "write sim-time trace records to this file")
	traceFormat := fs.String("trace-format", "jsonl", "trace encoding: jsonl or colf")
	metricsOut := fs.String("metrics", "", "write the metrics snapshot (CSV) to this file")
	fs.Usage = func() { usage(stderr) }
	if err := fs.Parse(args); err != nil {
		return 2
	}

	sub := fs.Args()
	if len(sub) == 0 {
		usage(stderr)
		return 2
	}
	// Accept flags on either side of the subcommand (`fgrepro -quick all`
	// and `fgrepro all -parallel 4` both work): the standard flag package
	// stops at the first positional argument, so re-parse what follows it.
	if err := fs.Parse(sub[1:]); err != nil {
		return 2
	}
	// Scenario.Validate checks the format too; checking the flag first
	// makes the message name it.
	if *traceFormat != "jsonl" && *traceFormat != "colf" {
		fmt.Fprintf(stderr, "fgrepro: -trace-format must be jsonl or colf, got %q\n", *traceFormat)
		return 2
	}
	if *parallel < 0 {
		fmt.Fprintf(stderr, "fgrepro: -parallel must be >= 0 (0 = GOMAXPROCS), got %d\n", *parallel)
		return 2
	}
	rest := fs.Args()
	var ids []string // nil: every experiment (`all`)
	switch sub[0] {
	case "list":
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	case "all":
	case "run":
		if len(rest) == 0 {
			fmt.Fprintln(stderr, "fgrepro run: need at least one experiment id")
			return 2
		}
		ids = rest
	case "colf2json":
		return cli.Colf2JSON("fgrepro", rest, stdin, stdout, stderr)
	case "gendata":
		return gendata(rest, *seed, *quick, stdout, stderr)
	default:
		usage(stderr)
		return 2
	}

	sc := &serve.Scenario{
		Kind:        "battery",
		Seed:        seed,
		Quick:       *quick,
		TraceFormat: *traceFormat,
		Experiments: ids,
	}
	if err := sc.Validate(); err != nil {
		fmt.Fprintln(stderr, "fgrepro:", err)
		return 2
	}
	rep, err := cli.RunScenario(sc, *parallel, stdout, *traceOut, *metricsOut)
	if err != nil {
		fmt.Fprintln(stderr, "fgrepro:", err)
		return 1
	}

	if *stats {
		w := tabwriter.NewWriter(stderr, 2, 0, 2, ' ', 0)
		fmt.Fprintln(w, "experiment\twall\tevents")
		var events uint64
		for _, r := range rep.Results {
			events += r.Events
			fmt.Fprintf(w, "%s\t%v\t%d\n", r.ID, r.Wall.Round(10*time.Microsecond), r.Events)
		}
		fmt.Fprintf(w, "total\t\t%d\n", events)
		if err := w.Flush(); err != nil {
			fmt.Fprintln(stderr, "fgrepro:", err)
		}
	}
	return 0
}

// gendata is the gendata subcommand: it writes the CSV datasets under
// args[0] (default "data"), the reduced sample when quick is set. It
// returns the exit status: 2 for a usage error, 1 for a write error.
func gendata(args []string, seed int64, quick bool, stdout, stderr io.Writer) int {
	if len(args) > 1 {
		fmt.Fprintln(stderr, "usage: fgrepro [-quick] [-seed N] gendata [DIR]")
		return 2
	}
	dir := "data"
	if len(args) == 1 {
		dir = args[0]
	}
	o := dataset.Options{Seed: seed}
	if quick {
		o = dataset.Options{Traces5G: 10, Traces4G: 10, TraceLenS: 120,
			WalkMinutes: 5, Sites: 100, SpeedtestRepeats: 2, Seed: seed}
	}
	if err := dataset.WriteAll(dir, o); err != nil {
		fmt.Fprintln(stderr, "fgrepro:", err)
		return 1
	}
	fmt.Fprintf(stdout, "dataset written under %s/ (traces, walking, speedtest, web, handoff)\n", dir)
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `fgrepro regenerates the paper's tables and figures.

usage:
  fgrepro [flags] list
  fgrepro [flags] run <id>...
  fgrepro [flags] all
  fgrepro colf2json [file.colf]
  fgrepro [-quick] [-seed N] gendata [DIR]

flags:
  -seed N         random seed (default 1)
  -quick          reduced repeats for a fast pass (gendata: reduced sample)
  -parallel N     experiments to run concurrently (0 = GOMAXPROCS, 1 = serial)
  -stats          per-experiment wall time and event counts on stderr
  -trace FILE     write sim-time trace records to FILE
  -trace-format F trace encoding: jsonl or colf (default jsonl)
  -metrics FILE   write the metrics snapshot (CSV) to FILE
`)
}
