// Command fgfleet runs city-scale fleet campaigns: 100k-1M concurrent UEs
// streaming over a tower deployment, sharded across cores, reporting
// population QoE/power/throughput CDFs per band mix.
//
// Usage:
//
//	fgfleet                        # 100k UEs per mix, all mixes
//	fgfleet -ues 1000000 -mix mmwave
//	fgfleet -ues 403 -shards 7 -trace t.json -metrics m.csv
//	fgfleet -stream -trace t.colf -trace-format colf
//	fgfleet colf2json t.colf       # decode a colf trace to JSON Lines
//
// Flags:
//
//	-ues N          population size per mix (default 100000)
//	-shards N       shards, one goroutine each (0 = GOMAXPROCS)
//	-seed N         campaign seed (default 1)
//	-mix NAME       low-band, mmwave, mixed, or all (default all)
//	-window S       arrival window in sim seconds (default 600)
//	-session S      video session length in sim seconds (default 32)
//	-stream         O(shards) campaign memory: fold sessions into streaming
//	                shard stats instead of a per-UE results slice
//	-trace FILE     write sampled per-session trace records to FILE
//	-trace-format F trace encoding: jsonl (JSON Lines) or colf (columnar
//	                binary; decode with the colf2json subcommand)
//	-metrics FILE   write population histograms and counters (CSV)
//	-stats          wall-clock UEs/sec and event counts on stderr
//
// fgfleet is a thin adapter over the scenario runner that fgservd serves
// from: the flags become a fleet serve.Scenario, which is validated and
// run by serve.Run. Its stdout and artifacts are therefore the bytes
// fgservd returns for the same scenario. Invalid knob values (-ues 0,
// negative -shards, a non-positive or non-finite -window/-session, an
// unknown -mix) fail fast with exit status 2 before any artifact file is
// created or shard started.
//
// Each campaign's shards encode their own trace segments in parallel and
// the segments stream to FILE in shard order as campaigns merge, so trace
// memory is bounded regardless of -ues. The fleet determinism contract
// applies: stdout and both artifacts are byte-identical for any -shards
// value, including 1, in both formats and both modes. Only -stats output
// (wall-clock) varies between runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"fivegsim/internal/cli"
	"fivegsim/internal/fleet"
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
	fs := flag.NewFlagSet("fgfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ues := fs.Int("ues", 100000, "population size per mix")
	shards := fs.Int("shards", 0, "shards, one goroutine each (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 1, "campaign seed")
	mixName := fs.String("mix", "all", "deployment mix: low-band, mmwave, mixed, or all")
	window := fs.Float64("window", 600, "arrival window (sim seconds)")
	session := fs.Float64("session", 32, "video session length (sim seconds)")
	stream := fs.Bool("stream", false, "stream mode: O(shards) campaign memory, sketch-based percentiles")
	traceOut := fs.String("trace", "", "write sampled per-session trace records to this file")
	traceFormat := fs.String("trace-format", "jsonl", "trace encoding: jsonl or colf")
	metricsOut := fs.String("metrics", "", "write population histograms and counters (CSV) to this file")
	stats := fs.Bool("stats", false, "print wall-clock UEs/sec and event counts to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if fs.NArg() > 0 {
		if fs.Arg(0) == "colf2json" {
			return cli.Colf2JSON("fgfleet", fs.Args()[1:], stdin, stdout, stderr)
		}
		fmt.Fprintf(stderr, "fgfleet: unknown argument %q (the only subcommand is colf2json)\n", fs.Arg(0))
		return 2
	}
	// Scenario.Validate checks the format too; checking the flag first
	// makes the message name it.
	if *traceFormat != "jsonl" && *traceFormat != "colf" {
		fmt.Fprintf(stderr, "fgfleet: -trace-format must be jsonl or colf, got %q\n", *traceFormat)
		return 2
	}

	sc := &serve.Scenario{
		Kind:        "fleet",
		Seed:        seed,
		TraceFormat: *traceFormat,
		Fleet: &serve.FleetScenario{
			UEs:      *ues,
			Shards:   *shards,
			Mix:      *mixName,
			WindowS:  *window,
			SessionS: *session,
			Stream:   *stream,
		},
	}
	if err := sc.Validate(); err != nil {
		fmt.Fprintln(stderr, "fgfleet:", err)
		return 2
	}
	rep, err := cli.RunScenario(sc, 0, stdout, *traceOut, *metricsOut)
	if err != nil {
		fmt.Fprintln(stderr, "fgfleet:", err)
		return 1
	}

	if *stats {
		w := tabwriter.NewWriter(stderr, 2, 0, 2, ' ', 0)
		fmt.Fprintln(w, "mix\tues\twall\tUEs/s\tevents")
		var total int
		var events uint64
		var wall time.Duration
		for _, c := range rep.Campaigns {
			n := campaignUEs(c.Result)
			total += n
			events += c.Result.Events
			wall += c.Wall
			fmt.Fprintf(w, "%s\t%d\t%v\t%.0f\t%d\n",
				c.Result.Cfg.Mix, n, c.Wall.Round(time.Millisecond),
				float64(n)/c.Wall.Seconds(), c.Result.Events)
		}
		fmt.Fprintf(w, "total\t%d\t%v\t%.0f\t%d\n",
			total, wall.Round(time.Millisecond), float64(total)/wall.Seconds(), events)
		if err := w.Flush(); err != nil {
			fmt.Fprintln(stderr, "fgfleet:", err)
		}
	}
	return 0
}

// campaignUEs returns the population size of a completed campaign in either
// mode (the results slice is nil in stream mode).
func campaignUEs(r *fleet.Result) int {
	if r.Stream != nil {
		return int(r.Stream.UEs())
	}
	return len(r.UEs)
}
