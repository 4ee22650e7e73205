package main

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"time"

	"fivegsim/internal/fleet"
)

// fleet-city sizing: a 250k-UE campaign per mix, so several jobs fit in one
// run, with every UE traced so the colf spill does as much work as it can.
const (
	fleetUEs         = 250_000
	fleetTraceEvery  = 1
	layersUEs        = 250_000 // mixed-mix population of the traced decomposition
	layersReps       = 5
	identityUEs      = 100_000 // per-mix population of the shard-identity job
	fleetCampaignOps = 3       // campaigns per job, one per mix
)

// runFleet measures fleet-city: the three-mix exact-mode campaign with a
// colf trace, metrics CSV and the exact table, GOMAXPROCS shards. Each
// worker process runs the job twice, cold and then repeated in place.
func runFleet(o options, r *result) error {
	if o.trace {
		return runFleetTraced(o, r)
	}
	setups, err := probeSetup(setupProbes)
	if err != nil {
		return err
	}
	var cold, warm, miss, rss []float64
	okJobs, jobs := 0, 0
	start := time.Now()
	for n := 0; keepGoing(start, o.seconds, n); n++ {
		dir := filepath.Join(o.work, fmt.Sprint(n))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		var rep workerReport
		ps, err := runWorker("fleet", fleetInput{Seed: o.seed, UEs: fleetUEs, TraceEvery: fleetTraceEvery, Dir: dir, Warm: true}, &rep)
		if err != nil {
			return err
		}
		setups = append(setups, ps.SetupS)
		jobs += 2
		r.attempted += 2 * fleetCampaignOps
		if rep.Err != "" {
			r.problem("fleet job: %s", rep.Err)
			r.failed += (2 - len(rep.Jobs)) * fleetCampaignOps
		}
		ok := false
		if len(rep.Jobs) > 0 {
			if ok, _, err = checkFleetJob(r, o.seed, rep.Jobs[0].Files); err != nil {
				return err
			}
			okJobs += b2i(ok)
			if !ok {
				r.failed += fleetCampaignOps
			}
		}
		if len(rep.Jobs) == 2 {
			same, err := sameFiles(rep.Jobs[0].Files, rep.Jobs[1].Files)
			if err != nil {
				return err
			}
			if !same {
				r.problem("fleet artifacts of the repeated job differ from the first job")
			}
			// The repeat passes only if the first job passed and it matches.
			okJobs += b2i(ok && same)
			if !ok || !same {
				r.failed += fleetCampaignOps
			}
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
	r.note("hit = repeat of the job in the same process; miss = process start to the cold job's artifacts written")
	return nil
}

// fleetArtifacts names the files a fleet-city job writes.
var fleetArtifacts = []string{"table", "metrics", "trace"}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkFleetJob checks one job's artifacts: pinned hashes at the default
// seed and the colf trace's shape. It returns whether every check passed
// and the trace's record count.
func checkFleetJob(r *result, seed int64, files map[string]string) (bool, int, error) {
	ok := true
	for _, name := range fleetArtifacts {
		h, err := fileHash(files[name])
		if err != nil {
			return false, 0, err
		}
		ok = checkPin(r, seed, "fleet-city/"+name, h) && ok
	}
	records, err := checkFleetTrace(files["trace"], fleetUEs, fleetTraceEvery)
	if err != nil {
		r.problem("fleet trace: %v", err)
		ok = false
	}
	return ok, records, nil
}

// sameFiles reports whether two jobs wrote byte-identical artifacts.
func sameFiles(a, b map[string]string) (bool, error) {
	for _, name := range fleetArtifacts {
		ha, err := fileHash(a[name])
		if err != nil {
			return false, err
		}
		hb, err := fileHash(b[name])
		if err != nil {
			return false, err
		}
		if ha != hb {
			return false, nil
		}
	}
	return true, nil
}

// runFleetTraced is the traced fleet-city run: the job untraced and then
// with spans around each layer call (their difference is the tracing
// overhead), then the layer decomposition and the shard-identity check.
func runFleetTraced(o options, r *result) error {
	root := r.tr.begin("bench.run", -1)
	defer r.tr.end(root)
	var files [2]map[string]string
	var walls [2]float64
	for i, traced := range []bool{false, true} {
		dir := filepath.Join(o.work, fmt.Sprint(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		sp := r.tr.begin("proc.fleet", root)
		var rep workerReport
		ps, err := runWorker("fleet", fleetInput{Seed: o.seed, UEs: fleetUEs, TraceEvery: fleetTraceEvery, Dir: dir, Traced: traced}, &rep)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		r.tr.graft(rep.Spans, sp)
		r.attempted += fleetCampaignOps
		if rep.Err != "" {
			r.problem("fleet job: %s", rep.Err)
			r.failed += fleetCampaignOps
			continue
		}
		files[i], walls[i] = rep.Jobs[0].Files, rep.Jobs[0].WallS
		if !traced {
			continue
		}
		ok, records, err := checkFleetJob(r, o.seed, files[i])
		if err != nil {
			return err
		}
		if files[0] != nil {
			same, err := sameFiles(files[0], files[1])
			if err != nil {
				return err
			}
			if !same {
				r.problem("traced fleet job artifacts differ from the untraced job")
				ok = false
			}
		}
		if !ok {
			r.failed += fleetCampaignOps
		}
		maps.Copy(r.values, rep.Values)
		st, err := os.Stat(files[i]["trace"])
		if err != nil {
			return err
		}
		r.values["fleet.trace_records"] = float64(records)
		r.values["colf.bytes"] = float64(st.Size())
		if records > 0 {
			r.values["colf.bytes_per_record"] = float64(st.Size()) / float64(records)
		}
		r.values["proc.cpu_s"] = ps.CPUS
		r.values["proc.alloc_mb"] = rep.AllocBytes / 1e6
		r.values["proc.gc_cycles"] = rep.GCCycles
	}
	r.values["bench.trace_overhead_s"] = walls[1] - walls[0]
	r.note("untraced job %.3f s, traced job %.3f s", walls[0], walls[1])

	dir := filepath.Join(o.work, "layers")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sp := r.tr.begin("proc.fleet-layers", root)
	var rep workerReport
	_, err := runWorker("fleet-layers", fleetLayersInput{Seed: o.seed, UEs: layersUEs, TraceEvery: fleetTraceEvery,
		Reps: layersReps, IdentityUEs: identityUEs, Dir: dir}, &rep)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	r.tr.graft(rep.Spans, sp)
	r.attempted += 2 * fleetCampaignOps
	if rep.Err != "" {
		r.problem("fleet layers: %s", rep.Err)
		r.failed += 2 * fleetCampaignOps
	}
	for _, p := range rep.Problems {
		r.problem("fleet layers: %s", p)
	}
	if len(rep.Problems) > 0 {
		r.failed += fleetCampaignOps
	}
	maps.Copy(r.values, rep.Values)
	r.note("kernel, spill and reduce split measured on one %d-UE %s campaign (median of %d); shard identity on %d UEs per mix",
		layersUEs, fleet.MixMixed, layersReps, identityUEs)
	return nil
}
