package main

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"

	"fivegsim/internal/experiments"
)

// runBattery measures battery-full: the full fgrepro battery through
// serve.RunScenario with GOMAXPROCS workers. Each worker process runs the
// job twice: the first (cold) run is what an fgrepro user waits for; the
// repeat runs with the process's trace cache already filled.
func runBattery(o options, r *result) error {
	if o.trace {
		return runBatteryTraced(o, r)
	}
	setups, err := probeSetup(setupProbes)
	if err != nil {
		return err
	}
	nExp := len(experiments.IDs())
	var cold, warm, miss, rss []float64
	okJobs, jobs := 0, 0
	ref, refOK := "", false
	start := time.Now()
	for n := 0; keepGoing(start, o.seconds, n); n++ {
		dir := filepath.Join(o.work, fmt.Sprint(n))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		var rep workerReport
		ps, err := runWorker("battery", batteryInput{Seed: o.seed, Dir: dir, Warm: true}, &rep)
		if err != nil {
			return err
		}
		setups = append(setups, ps.SetupS)
		jobs += 2
		r.attempted += 2 * nExp
		if rep.Err != "" {
			r.problem("battery job: %s", rep.Err)
			r.failed += (2 - len(rep.Jobs)) * nExp
		}
		for j, job := range rep.Jobs {
			h, err := fileHash(job.Files["table"])
			if err != nil {
				return err
			}
			if ref == "" {
				ref = h
				refOK = checkPin(r, o.seed, "battery-full/table", h)
			}
			if h != ref {
				r.problem("battery table of process %d job %d differs from the first run", n, j)
			}
			if h != ref || !refOK {
				r.failed += nExp
				continue
			}
			okJobs++
		}
		if len(rep.Jobs) == 2 {
			cold = append(cold, rep.Jobs[0].WallS)
			warm = append(warm, rep.Jobs[1].WallS*1000)
			miss = append(miss, (ps.SetupS+rep.Jobs[0].WallS)*1000)
			rss = append(rss, ps.MaxRSSB/1e6)
		}
		os.RemoveAll(dir)
	}
	r.set("setup_s", setups...)
	r.set("wall_s", cold...)
	r.set("peak_rss_mb", rss...)
	r.set("hit_p50_ms", warm...)
	setMissTail(r, miss, true)
	r.set("ok_share", float64(okJobs)/float64(jobs))
	r.note("hit = repeat of the job in the same process (warm trace cache); miss = process start to the cold job's table written")
	return nil
}

// setMissTail reports miss_tail_ms from miss latencies in ms, and notes
// which percentile it is. The tail is the highest percentile with
// tailBeyond samples beyond it at the benchmark's run length. A batch run
// fits about tailBeyond jobs into that length, so its tail is the maximum,
// and it stays the maximum when a faster program or host fits more jobs
// into a run rather than turning into a low percentile.
func setMissTail(r *result, ms []float64, batch bool) {
	v, pct := tail(ms)
	if batch && len(ms) > 0 {
		v, pct = slices.Max(ms), 100
	}
	r.values["miss_tail_ms"] = v
	r.samples["miss_tail_ms"] = ms
	r.note("miss_tail_ms is p%.4g of %d samples", pct, len(ms))
}

// runBatteryTraced is the traced battery-full run: an untraced cold job, the
// same job with spans around the worker pool and the rendering (their
// difference is the tracing overhead), and a serial pass timing each
// experiment alone in id order. All three must produce the same bytes.
func runBatteryTraced(o options, r *result) error {
	runs := []struct {
		mode string
		in   batteryInput
	}{
		{"battery", batteryInput{Seed: o.seed, Dir: o.work}},
		{"battery", batteryInput{Seed: o.seed, Dir: o.work, Traced: true}},
		{"battery-serial", batteryInput{Seed: o.seed, Dir: o.work}},
	}
	root := r.tr.begin("bench.run", -1)
	defer r.tr.end(root)
	nExp := len(experiments.IDs())
	var ref string
	refOK := false
	var walls [2]float64
	for i, run := range runs {
		sp := r.tr.begin("proc."+run.mode, root)
		var rep workerReport
		ps, err := runWorker(run.mode, run.in, &rep)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		r.tr.graft(rep.Spans, sp)
		r.attempted += nExp
		if rep.Err != "" {
			r.problem("%s: %s", run.mode, rep.Err)
			r.failed += nExp
			continue
		}
		r.failed += len(rep.Problems) * nExp
		for _, p := range rep.Problems {
			r.problem("%s: %s", run.mode, p)
		}
		h, err := fileHash(rep.Jobs[0].Files["table"])
		if err != nil {
			return err
		}
		if i == 0 {
			ref = h
			refOK = checkPin(r, o.seed, "battery-full/table", h)
		} else if h != ref {
			r.problem("%s (traced %t) table differs from the untraced parallel run", run.mode, run.in.Traced)
		}
		if h != ref || !refOK {
			r.failed += nExp
		}
		if i < 2 {
			walls[i] = rep.Jobs[0].WallS
		}
		maps.Copy(r.values, rep.Values)
		if i == 1 {
			r.values["proc.cpu_s"] = ps.CPUS
			r.values["proc.alloc_mb"] = rep.AllocBytes / 1e6
			r.values["proc.gc_cycles"] = rep.GCCycles
		}
	}
	r.values["bench.trace_overhead_s"] = walls[1] - walls[0]
	r.note("untraced job %.3f s, traced job %.3f s", walls[0], walls[1])
	return nil
}
