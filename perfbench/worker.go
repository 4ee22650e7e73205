package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"fivegsim/internal/experiments"
	"fivegsim/internal/fleet"
	"fivegsim/internal/obs"
	"fivegsim/internal/serve"
	"fivegsim/internal/trace"
)

// workerReport is the last line a worker prints: what it measured from
// inside the process under test.
type workerReport struct {
	Jobs       []jobReport        `json:"jobs,omitempty"`
	Values     map[string]float64 `json:"values,omitempty"`   // per-layer measurements
	Spans      []span             `json:"spans,omitempty"`    // traced modes only
	Problems   []string           `json:"problems,omitempty"` // failed in-process checks
	Err        string             `json:"err,omitempty"`      // the job failed to run
	AllocBytes float64            `json:"alloc_bytes"`
	GCCycles   float64            `json:"gc_cycles"`
}

// jobReport is one job run by a worker.
type jobReport struct {
	WallS float64           `json:"wall_s"`
	Files map[string]string `json:"files"` // artifact name -> path
}

// batteryInput is the battery-full job: the full (not quick) fgrepro
// battery at one seed, table artifact.
type batteryInput struct {
	Seed   int64  `json:"seed"`
	Dir    string `json:"dir"`
	Warm   bool   `json:"warm"`   // repeat the job in the same process
	Traced bool   `json:"traced"` // time the layer calls with spans
}

// fleetInput is the fleet-city job: one exact-mode campaign per mix, as
// fgfleet runs it with a colf trace and a metrics file.
type fleetInput struct {
	Seed       int64  `json:"seed"`
	UEs        int    `json:"ues"`
	TraceEvery int    `json:"trace_every"`
	Dir        string `json:"dir"`
	Warm       bool   `json:"warm"`
	Traced     bool   `json:"traced"`
}

// fleetLayersInput sizes the traced fleet decomposition.
type fleetLayersInput struct {
	Seed        int64  `json:"seed"`
	UEs         int    `json:"ues"`          // population of the mixed-mix kernel runs
	TraceEvery  int    `json:"trace_every"`  // stride of the spill variant
	Reps        int    `json:"reps"`         // interleaved repetitions of each variant
	IdentityUEs int    `json:"identity_ues"` // per-mix population of the shard-identity job
	Dir         string `json:"dir"`
}

// workerMain is the entry point of `fgbench worker <mode>`: read the input,
// report ready, run, print the report. The exit status is nonzero only when
// the worker cannot follow the protocol; a job that fails is reported in
// the report's Err.
func workerMain(mode string, stdin io.Reader, stdout io.Writer) int {
	raw, err := io.ReadAll(stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgbench worker:", err)
		return 1
	}
	fmt.Fprintln(stdout, readyLine)
	var rep workerReport
	switch mode {
	case "probe":
	case "battery":
		var in batteryInput
		if err = json.Unmarshal(raw, &in); err == nil {
			rep = batteryWorker(in)
		}
	case "battery-serial":
		var in batteryInput
		if err = json.Unmarshal(raw, &in); err == nil {
			rep = batterySerialWorker(in)
		}
	case "fleet":
		var in fleetInput
		if err = json.Unmarshal(raw, &in); err == nil {
			rep = fleetWorker(in)
		}
	case "fleet-layers":
		var in fleetLayersInput
		if err = json.Unmarshal(raw, &in); err == nil {
			rep = fleetLayersWorker(in)
		}
	default:
		err = fmt.Errorf("unknown worker mode %q", mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgbench worker:", err)
		return 1
	}
	rep.AllocBytes, rep.GCCycles = runtimeCounters()
	data, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgbench worker:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}

// runtimeCounters returns the bytes allocated and GC cycles completed so far.
func runtimeCounters() (allocBytes, gcCycles float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// writeFile creates path and streams one artifact into it through a
// buffered writer, as the CLIs write stdout or their artifact files.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// freeForRepeat drops the previous job's garbage so a repeated job starts
// from the same heap state as far as the runtime allows.
func freeForRepeat() {
	runtime.GC()
	debug.FreeOSMemory()
}

// batteryWorker runs the full battery through serve.RunScenario (untraced)
// or through experiments.RunManyCtx plus the table rendering (traced, so
// the scheduling can be measured from the per-experiment results).
func batteryWorker(in batteryInput) workerReport {
	rep := workerReport{Values: map[string]float64{}}
	seed := in.Seed
	sc := &serve.Scenario{Kind: "battery", Seed: &seed}
	gens0 := trace.DefaultCache.Generations()
	jobs := 1
	if in.Warm {
		jobs = 2
	}
	for j := 0; j < jobs; j++ {
		if j > 0 {
			freeForRepeat()
		}
		path := filepath.Join(in.Dir, fmt.Sprintf("battery-%d.txt", j))
		start := time.Now()
		var err error
		if in.Traced {
			var tr tracer
			err = tracedBattery(&tr, sc, path, &rep)
			rep.Spans = tr.snapshot()
		} else {
			err = writeFile(path, func(w io.Writer) error { return serve.RunScenario(context.Background(), sc, w) })
		}
		wall := time.Since(start)
		if err != nil {
			rep.Err = err.Error()
			return rep
		}
		rep.Jobs = append(rep.Jobs, jobReport{WallS: wall.Seconds(), Files: map[string]string{"table": path}})
		if j == 0 {
			rep.Values["trace.generations"] = float64(trace.DefaultCache.Generations() - gens0)
		}
	}
	return rep
}

// tracedBattery is the battery job with a span around each layer call: the
// LPT worker pool, then the table rendering serve.RunScenario would do.
func tracedBattery(tr *tracer, sc *serve.Scenario, path string, rep *workerReport) error {
	job := tr.begin("bench.battery_job", -1)
	defer tr.end(job)
	cfg := experiments.Config{Seed: *sc.Seed}
	workers := runtime.GOMAXPROCS(0)
	sp := tr.begin("experiments.RunManyCtx", job)
	start := time.Now()
	results, err := experiments.RunManyCtx(context.Background(), cfg, experiments.IDs(), workers)
	wall := time.Since(start)
	tr.end(sp)
	if err != nil {
		return err
	}
	var busy time.Duration
	for _, r := range results {
		busy += r.Wall
	}
	rep.Values["experiments.idle_share"] = 1 - busy.Seconds()/(float64(workers)*wall.Seconds())
	sp = tr.begin("serve.render_tables", job)
	defer tr.end(sp)
	return writeFile(path, func(w io.Writer) error {
		for _, r := range results {
			for _, t := range r.Tables {
				if _, err := io.WriteString(w, t.String()+"\n"); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// batterySerialWorker runs every experiment alone, in id order, each timed
// by its own span, and writes the tables exactly as the battery artifact
// renders them, so fgbench can compare the bytes with the parallel run.
func batterySerialWorker(in batteryInput) workerReport {
	var rep workerReport
	var tr tracer
	cfg := experiments.Config{Seed: in.Seed}
	path := filepath.Join(in.Dir, "battery-serial.txt")
	walls := map[string]float64{}
	gens0 := trace.DefaultCache.Generations()
	job := tr.begin("bench.battery_serial", -1)
	err := writeFile(path, func(w io.Writer) error {
		for _, id := range experiments.IDs() {
			sp := tr.begin("experiments."+id, job)
			start := time.Now()
			tables, err := experiments.Run(id, cfg)
			walls[id] = time.Since(start).Seconds()
			tr.end(sp)
			if err != nil {
				return err
			}
			for _, t := range tables {
				if _, err := io.WriteString(w, t.String()+"\n"); err != nil {
					return err
				}
			}
		}
		return nil
	})
	tr.end(job)
	rep.Spans = tr.snapshot()
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	rep.Values = map[string]float64{"trace.generations": float64(trace.DefaultCache.Generations() - gens0)}
	var busy, critical float64
	for _, id := range experiments.IDs() {
		busy += walls[id]
		critical = max(critical, walls[id])
		rep.Values["experiments."+id+".wall_s"] = walls[id]
	}
	rep.Values["experiments.busy_s"] = busy
	rep.Values["experiments.critical_s"] = critical
	rep.Jobs = []jobReport{{Files: map[string]string{"table": path}}}
	return rep
}

// fleetWorker runs the fleet-city job, once or twice.
func fleetWorker(in fleetInput) workerReport {
	var rep workerReport
	jobs := 1
	if in.Warm {
		jobs = 2
	}
	for j := 0; j < jobs; j++ {
		if j > 0 {
			freeForRepeat()
		}
		var tr *tracer
		if in.Traced {
			tr = &tracer{}
		}
		prefix := filepath.Join(in.Dir, fmt.Sprintf("fleet-%d-", j))
		start := time.Now()
		files, vals, err := fleetJob(tr, in.Seed, in.UEs, 0, in.TraceEvery, prefix)
		wall := time.Since(start)
		if err != nil {
			rep.Err = err.Error()
			return rep
		}
		rep.Jobs = append(rep.Jobs, jobReport{WallS: wall.Seconds(), Files: files})
		if j == 0 {
			rep.Values = vals
			rep.Spans = tr.snapshot()
		}
	}
	return rep
}

// fleetJob is what fgfleet does for `-ues N -trace t.colf -trace-format colf
// -metrics m.csv`: one campaign per mix with a shared obs root and a
// shard-parallel colf spill, the exact-mode table on its output, then the
// metrics CSV. It returns the artifact paths and the wall time of each
// campaign and stage.
func fleetJob(tr *tracer, seed int64, ues, shards, every int, prefix string) (map[string]string, map[string]float64, error) {
	files := map[string]string{"table": prefix + "table.txt", "trace": prefix + "trace.colf", "metrics": prefix + "metrics.csv"}
	vals := map[string]float64{}
	job := tr.begin("bench.fleet_job", -1)
	defer tr.end(job)

	root := obs.New()
	tf, err := os.Create(files["trace"])
	if err != nil {
		return nil, nil, err
	}
	defer tf.Close()
	spill := fleet.NewColfSpill(tf, "fleet")
	var rs []*fleet.Result
	var events float64
	for _, mix := range fleet.AllMixes {
		sub := obs.Sub(root)
		cfg := fleet.Config{Seed: seed, UEs: ues, Shards: shards, Mix: mix, Obs: sub, TraceEvery: every,
			Spill: spill, SpillTags: []obs.Field{obs.S("mix", mix.String())}}
		sp := tr.begin("fleet.Run."+mix.String(), job)
		start := time.Now()
		r, err := fleet.Run(cfg)
		vals["fleet.campaign_s."+mix.String()] = time.Since(start).Seconds()
		tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
		sp = tr.begin("obs.MergeTagged", job)
		root.MergeTagged(sub, obs.S("mix", mix.String()))
		tr.end(sp)
		events += float64(r.Events)
		rs = append(rs, r)
	}
	vals["fleet.events"] = events

	sp := tr.begin("experiments.FleetTable", job)
	start := time.Now()
	err = writeFile(files["table"], func(w io.Writer) error {
		_, err := fmt.Fprintln(w, experiments.FleetTable(rs))
		return err
	})
	vals["fleet.table_s"] = time.Since(start).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}

	sp = tr.begin("colf.spill_close", job)
	err = spill.Close()
	if err == nil {
		err = tf.Close()
	}
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("writing %s: %w", files["trace"], err)
	}

	sp = tr.begin("obs.WriteMetricsCSV", job)
	start = time.Now()
	err = writeFile(files["metrics"], func(w io.Writer) error {
		return obs.WriteMetricsCSV(w, "fleet", root.Meter())
	})
	vals["fleet.metrics_write_s"] = time.Since(start).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	return files, vals, nil
}

// fleetLayersWorker splits a mixed-mix campaign into its layers by adding
// one stage at a time: the shard kernel alone, plus the colf spill and its
// Close, plus the obs reduce. Variants are interleaved over Reps rounds and
// each reports its median. It also times the kernel on one shard, and runs
// a small three-mix job at one shard and at GOMAXPROCS shards to check that
// their artifacts are byte-identical.
func fleetLayersWorker(in fleetLayersInput) workerReport {
	var rep workerReport
	var tr tracer
	root := tr.begin("bench.fleet_layers", -1)
	base := fleet.Config{Seed: in.Seed, UEs: in.UEs, Mix: fleet.MixMixed, TraceEvery: in.TraceEvery}
	variant := func(name string, cfg fleet.Config, spill, withObs bool) (float64, uint64, error) {
		var sp *fleet.Spill
		if spill {
			sp = fleet.NewColfSpill(io.Discard, "fleet")
			cfg.Spill = sp
			cfg.SpillTags = []obs.Field{obs.S("mix", cfg.Mix.String())}
		}
		var o *obs.Obs
		if withObs {
			o = obs.New()
			cfg.Obs = obs.Sub(o)
		}
		id := tr.begin(name, root)
		start := time.Now()
		r, err := fleet.Run(cfg)
		if err == nil && withObs {
			o.MergeTagged(cfg.Obs, obs.S("mix", cfg.Mix.String()))
		}
		if err == nil && sp != nil {
			err = sp.Close()
		}
		wall := time.Since(start).Seconds()
		tr.end(id)
		if err != nil {
			return 0, 0, err
		}
		return wall, r.Events, nil
	}
	var kernel, spill, full []float64
	var events uint64
	for i := 0; i < in.Reps; i++ {
		k, ev, err := variant("fleet.kernel", base, false, false)
		if err != nil {
			rep.Err = err.Error()
			return rep
		}
		events = ev
		s, _, err := variant("fleet.kernel+spill", base, true, false)
		if err != nil {
			rep.Err = err.Error()
			return rep
		}
		f, _, err := variant("fleet.kernel+spill+obs", base, true, true)
		if err != nil {
			rep.Err = err.Error()
			return rep
		}
		kernel, spill, full = append(kernel, k), append(spill, s), append(full, f)
	}
	one := base
	one.Shards = 1
	k1, ev1, err := variant("fleet.kernel_1shard", one, false, false)
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	kn := median(kernel)
	speedup := k1 / kn
	rep.Values = map[string]float64{
		"fleet.kernel_s":         kn,
		"fleet.spill_s":          median(spill) - kn,
		"fleet.reduce_s":         median(full) - median(spill),
		"fleet.shard_speedup":    speedup,
		"fleet.shard_efficiency": speedup / float64(runtime.GOMAXPROCS(0)),
		"fleet.ns_per_event":     k1 * 1e9 / float64(ev1),
	}
	if ev1 == 0 || events == 0 {
		rep.Problems = append(rep.Problems, "fleet kernel processed no events")
	}

	// Shard-count identity: every artifact of the job at one shard must
	// equal the same job at GOMAXPROCS shards.
	id := tr.begin("bench.fleet_shard_identity", root)
	var ref map[string]string
	for _, shards := range []int{1, runtime.GOMAXPROCS(0)} {
		prefix := filepath.Join(in.Dir, fmt.Sprintf("identity-%d-", shards))
		files, _, err := fleetJob(nil, in.Seed, in.IdentityUEs, shards, in.TraceEvery, prefix)
		if err != nil {
			rep.Err = err.Error()
			return rep
		}
		if ref == nil {
			ref = files
			continue
		}
		same, err := sameFiles(ref, files)
		if err != nil {
			rep.Err = err.Error()
			return rep
		}
		if !same {
			rep.Problems = append(rep.Problems, fmt.Sprintf(
				"fleet artifacts differ between 1 and %d shards", shards))
		}
	}
	tr.end(id)
	tr.end(root)
	rep.Spans = tr.snapshot()
	return rep
}
