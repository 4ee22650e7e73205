// Command fgbench is the repository benchmark. It runs one workload per
// invocation and prints every metric by name with its unit; the last line
// of standard output is a JSON object with the keys correct, attempted,
// failed and metrics.
//
//	fgbench --workload battery-full|fleet-city|serve-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it makes
// a separate traced run and reports the per-layer metrics. Every timed job
// runs in a fresh process (fgbench re-executing itself as a worker, or the
// fgservd binary), so process-wide caches start cold as they do for users.
// perfbench/run.sh builds both binaries and runs this command from the
// repository root; see README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// defaultSeed is the seed at which artifact hashes are pinned (checks.go).
const defaultSeed = 1

// buildDir holds everything the benchmark builds or writes, relative to the
// repository root.
const buildDir = ".bench_build"

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string // scratch directory for artifacts, removed at exit
}

// result accumulates one run's outcome.
type result struct {
	attempted, failed int
	problems          []string
	values            map[string]float64   // reported metric values
	samples           map[string][]float64 // per-metric samples behind the values, for the report
	notes             []string             // extra report lines
	tr                *tracer              // non-nil in traced runs
}

func newResult(traced bool) *result {
	r := &result{values: map[string]float64{}, samples: map[string][]float64{}}
	if traced {
		r.tr = &tracer{}
	}
	return r
}

// problem records a failed check.
func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// set reports a metric as the median of its samples.
func (r *result) set(name string, samples ...float64) {
	r.samples[name] = samples
	r.values[name] = median(samples)
}

// note adds a line to the printed report.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options, *result) error{
	"battery-full": runBattery,
	"fleet-city":   runFleet,
	"serve-mix":    runServe,
}

func main() {
	if len(os.Args) > 2 && os.Args[1] == "worker" {
		os.Exit(workerMain(os.Args[2], os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("fgbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var trace int
	fl.StringVar(&o.workload, "workload", "", "battery-full, fleet-city or serve-mix")
	fl.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fl.IntVar(&o.seconds, "seconds", 30, "how long one run measures")
	fl.IntVar(&trace, "trace", 0, "1 makes a traced run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) || fl.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: fgbench --workload battery-full|fleet-city|serve-mix --seed N --seconds S --trace 0|1")
		return 2
	}
	o.trace = trace == 1
	sp, err := loadSpec(benchmarkFile)
	if err != nil {
		fmt.Fprintln(stderr, "fgbench: run from the repository root:", err)
		return 1
	}
	metrics := sp.EndToEnd
	if o.trace {
		metrics = sp.PerLayer
	}
	o.work = filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "fgbench:", err)
		return 1
	}
	defer os.RemoveAll(o.work)

	res := newResult(o.trace)
	start := time.Now()
	if err := fn(o, res); err != nil {
		fmt.Fprintf(stderr, "fgbench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.trace {
		// Layers the workload does not run did no work on it.
		for _, m := range metrics {
			if _, ok := res.values[m.Name]; !ok {
				res.values[m.Name] = 0
			}
		}
	}
	finalize(res, metrics)
	printReport(stdout, o, metrics, res, time.Since(start))
	if res.tr != nil {
		path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := writeSpans(path, res.tr.snapshot()); err != nil {
			fmt.Fprintln(stderr, "fgbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
	}
	if err := printResultLine(stdout, metrics, res); err != nil {
		fmt.Fprintln(stderr, "fgbench:", err)
		return 1
	}
	return 0
}

// printReport writes the human-readable part of the result: the host
// fingerprint, every metric with its unit, median, quartiles and sample
// count, the check outcome, and in traced runs the per-layer self times.
func printReport(w io.Writer, o options, metrics []metricDef, r *result, elapsed time.Duration) {
	fmt.Fprintf(w, "# workload %s seed %d seconds %d trace %t (run took %.1f s)\n",
		o.workload, o.seed, o.seconds, o.trace, elapsed.Seconds())
	for _, line := range hostFingerprint() {
		fmt.Fprintln(w, "# host", line)
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "# metric\tunit\tvalue\tq1\tq3\tn")
	for _, m := range metrics {
		v, xs := r.values[m.Name], r.samples[m.Name]
		if len(xs) == 0 {
			fmt.Fprintf(tw, "# %s\t%s\t%.6g\t-\t-\t1\n", m.Name, m.Unit, v)
			continue
		}
		q1, _, q3 := quartiles(xs)
		fmt.Fprintf(tw, "# %s\t%s\t%.6g\t%.6g\t%.6g\t%d\n", m.Name, m.Unit, v, q1, q3, len(xs))
	}
	tw.Flush()
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	fmt.Fprintf(w, "# operations attempted %d failed %d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintln(w, "# CHECK FAILED:", p)
	}
	if r.tr != nil {
		writeSelfTimeTable(w, r.tr.snapshot())
	}
}

// finalize fails the run for any declared metric that was not measured and
// for a run that attempted nothing.
func finalize(r *result, metrics []metricDef) {
	for _, m := range metrics {
		v, ok := r.values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("metric %s was not measured", m.Name)
			r.values[m.Name] = 0
		}
	}
	if r.attempted < 1 {
		r.problem("no operation was attempted")
		r.attempted, r.failed = 1, 1
	}
}

// printResultLine writes the final JSON line.
func printResultLine(w io.Writer, metrics []metricDef, r *result) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range metrics {
		out.Metrics[m.Name] = metric{Value: r.values[m.Name], Unit: m.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// hostFingerprint describes the machine and the code under test: CPU model,
// core count, GOMAXPROCS, Go version, the git commit with a dirty flag when
// the tree is a git checkout, and a digest of the Go sources either way.
func hostFingerprint() []string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	commit, dirty := "none (not a git checkout)", "unknown"
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	wd, _ := os.Getwd()
	// Only the repository rooted here counts, not one that encloses it.
	if out, err2 := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil && err2 == nil &&
		sameDir(strings.TrimSpace(string(top)), wd) {
		commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			dirty = fmt.Sprint(len(strings.TrimSpace(string(st))) > 0)
		}
	}
	return []string{
		fmt.Sprintf("cpu %q nproc %d gomaxprocs %d %s %s/%s",
			cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		fmt.Sprintf("commit %s dirty %s source-digest %s", commit, dirty, sourceDigest()),
	}
}

// sameDir reports whether two paths name the same directory.
func sameDir(a, b string) bool {
	sa, errA := os.Stat(a)
	sb, errB := os.Stat(b)
	return errA == nil && errB == nil && os.SameFile(sa, sb)
}

// sourceDigest hashes go.mod and every .go file under cmd/ and internal/,
// in path order: it names the code under test even outside git.
func sourceDigest() string {
	h := sha256.New()
	var paths []string
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				paths = append(paths, p)
			}
			return nil
		})
	}
	sort.Strings(paths)
	for _, p := range append([]string{"go.mod"}, paths...) {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unreadable"
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
