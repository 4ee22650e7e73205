package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"fivegsim/internal/fleet"
	"fivegsim/internal/obs"
	"fivegsim/internal/stats"
)

func init() { register("fleet", fleetExp) }

// fleetQuick/fleetFull size the per-mix population of the battery's fleet
// experiment. The CLI (cmd/fgfleet) and BenchmarkFleet* run the 100k+
// campaigns; the battery keeps the experiment in the same wall-clock class
// as the large figure experiments.
const (
	fleetQuickUEs = 900
	fleetFullUEs  = 24000
)

// fleetExp is the population experiment: city-wide QoE, power, and
// throughput CDFs by band mix (low-band blanket vs mmWave small cells vs
// mixed), the operator-strategy comparison that ERRANT-style population
// profiles motivate. One campaign per mix; shard count follows GOMAXPROCS
// and — by the fleet determinism contract — cannot affect a byte of this
// table or of the merged obs artifacts.
func fleetExp(cfg Config) []*Table {
	n := cfg.pick(fleetQuickUEs, fleetFullUEs)
	rs := make([]*fleet.Result, 0, len(fleet.AllMixes))
	for _, mix := range fleet.AllMixes {
		sub := obs.Sub(cfg.Obs)
		r, err := fleet.Run(fleet.Config{Seed: cfg.Seed, UEs: n, Mix: mix, Obs: sub})
		if err != nil {
			// Unreachable for the built-in mixes: every layer's power curve
			// is validated by fleet's own tests. Fail the battery loudly.
			panic(err)
		}
		rs = append(rs, r)
		cfg.Obs.MergeTagged(sub, obs.S("mix", mix.String()))
	}
	return []*Table{FleetTable(rs)}
}

// FleetTable renders campaign results as population CDF rows (one row per
// mix and metric). Shared by the battery experiment, cmd/fgfleet, and the
// byte-identity tests, so "the table" means the same bytes everywhere.
//
// Each row sorts one full per-UE column, so the rows are built on a pool of
// at most GOMAXPROCS goroutines and added in the fixed mix-then-metric
// order. A row's cells depend only on its own column, so the table's bytes
// do not depend on the schedule, and at most one column extract per worker
// is live at a time.
func FleetTable(rs []*fleet.Result) *Table {
	t := &Table{
		ID:     "fleet",
		Title:  "City-scale population campaign: QoE/power/throughput CDFs by band mix",
		Header: []string{"mix", "metric", "p5", "p25", "p50", "p75", "p95", "mean"},
	}
	type column struct {
		mix, metric string
		extract     func() []float64
	}
	var cols []column
	for _, r := range rs {
		mix := r.Cfg.Mix.String()
		cols = append(cols,
			column{mix, "tput Mbps", r.ThroughputsMbps},
			column{mix, "QoE/chunk", r.QoEs},
			column{mix, "energy J", r.EnergiesJ},
			column{mix, "stall s", r.StallsS})
	}
	rows := make([][]string, len(cols))
	forEachIndex(len(cols), func(i int) {
		c := cols[i]
		rows[i] = cdfRow(c.mix, c.metric, c.extract())
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	for _, r := range rs {
		t.Notes = append(t.Notes, fmt.Sprintf("%s: %d UEs, %s of chunks on NR",
			r.Cfg.Mix.String(), len(r.UEs), pct(100*r.NRShare())))
	}
	return t
}

// FleetStreamTable is FleetTable's stream-mode counterpart: the same rows
// rendered from each campaign's merged ShardStats — integer-accumulated
// means, sketch-estimated percentiles — instead of per-UE extracts. When
// the population fits the sketch (UEs <= Config.SketchK) the bottom-k
// sample is the whole population and the percentile cells match
// FleetTable's exactly.
func FleetStreamTable(rs []*fleet.Result) *Table {
	t := &Table{
		ID:     "fleet",
		Title:  "City-scale population campaign: QoE/power/throughput CDFs by band mix",
		Header: []string{"mix", "metric", "p5", "p25", "p50", "p75", "p95", "mean"},
	}
	for _, r := range rs {
		mix := r.Cfg.Mix.String()
		for _, s := range r.Stream.Summaries() {
			t.AddRow(mix, streamMetricLabel(s.Name),
				f1(s.P5), f1(s.P25), f1(s.P50), f1(s.P75), f1(s.P95), f1(s.Mean))
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: %d UEs, %s of chunks on NR",
			mix, r.Stream.UEs(), pct(100*r.Stream.NRShare())))
	}
	return t
}

// streamMetricLabel maps ShardStats summary names onto FleetTable's metric
// column so the two tables line up row for row.
func streamMetricLabel(name string) string {
	switch name {
	case "tput_mbps":
		return "tput Mbps"
	case "qoe":
		return "QoE/chunk"
	case "energy_j":
		return "energy J"
	case "stall_s":
		return "stall s"
	}
	return name
}

// cdfRow renders one population CDF row: the column's percentiles and
// mean. It sorts xs in place.
func cdfRow(mix, metric string, xs []float64) []string {
	sorted := stats.SortN(mustFinite("fleet "+mix+" "+metric, xs))
	return []string{mix, metric,
		f1(stats.PercentileSorted(sorted, 5)),
		f1(stats.PercentileSorted(sorted, 25)),
		f1(stats.PercentileSorted(sorted, 50)),
		f1(stats.PercentileSorted(sorted, 75)),
		f1(stats.PercentileSorted(sorted, 95)),
		f1(stats.Mean(sorted))}
}

// forEachIndex calls f(i) for every i in [0, n) on at most GOMAXPROCS
// goroutines and returns once all calls have. A panic in any call is
// re-raised on the caller's goroutine after the join, the lowest index's
// first, so a failing call fails its caller as it would in a serial loop.
func forEachIndex(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	panics := make([]any, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				func() {
					defer func() { panics[i] = recover() }()
					f(i)
				}()
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
