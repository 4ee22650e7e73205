package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"fivegsim/internal/serve"
)

// The serve-mix workload: an open-loop Poisson schedule over a skewed pool
// of scenario keys. Both the pool and the schedule are pure functions of
// the workload seed, so a run's inputs repeat exactly for a given --seed.
//
// The pool is stratified: every template contributes the same number of
// distinct keys at every seed (only the scenario seeds inside the keys
// change), and repeat requests cycle through the templates in a fixed
// order. The mix of cheap and expensive misses, and of small and large
// replayed bodies, is therefore the same at every seed.

// template is one kind of request in the pool.
type template struct {
	name  string
	kind  string // "battery" or "fleet"
	build func(seed int64) serve.Scenario
}

// templates spans both kinds, all three artifacts and both trace formats:
// small fleet campaigns (exact and stream) and quick-battery subsets,
// including the trace-driven fig18b video experiment at several seeds.
var templates = []template{
	{"fleet-table", "fleet", func(s int64) serve.Scenario {
		return serve.Scenario{Kind: "fleet", Seed: &s,
			Fleet: &serve.FleetScenario{UEs: 4000, Mix: "mixed", WindowS: 60, SessionS: 16}}
	}},
	{"fleet-stream", "fleet", func(s int64) serve.Scenario {
		return serve.Scenario{Kind: "fleet", Seed: &s,
			Fleet: &serve.FleetScenario{UEs: 1500, WindowS: 60, SessionS: 16, Stream: true}}
	}},
	{"fleet-trace-jsonl", "fleet", func(s int64) serve.Scenario {
		return serve.Scenario{Kind: "fleet", Seed: &s, Artifact: serve.ArtifactTrace,
			Fleet: &serve.FleetScenario{UEs: 3000, Mix: "low-band", WindowS: 60, SessionS: 16, TraceEvery: 4}}
	}},
	{"fleet-trace-colf", "fleet", func(s int64) serve.Scenario {
		return serve.Scenario{Kind: "fleet", Seed: &s, Artifact: serve.ArtifactTrace, TraceFormat: "colf",
			Fleet: &serve.FleetScenario{UEs: 1500, WindowS: 60, SessionS: 16, TraceEvery: 2}}
	}},
	{"fleet-metrics", "fleet", func(s int64) serve.Scenario {
		return serve.Scenario{Kind: "fleet", Seed: &s, Artifact: serve.ArtifactMetrics,
			Fleet: &serve.FleetScenario{UEs: 4000, Mix: "mmwave", WindowS: 60, SessionS: 16}}
	}},
	{"battery-table", "battery", func(s int64) serve.Scenario {
		return serve.Scenario{Kind: "battery", Seed: &s, Quick: true,
			Experiments: []string{"table7", "fig11", "fig25"}}
	}},
	{"battery-trace-jsonl", "battery", func(s int64) serve.Scenario {
		return serve.Scenario{Kind: "battery", Seed: &s, Quick: true, Artifact: serve.ArtifactTrace,
			Experiments: []string{"fig2", "table2"}}
	}},
	{"battery-trace-colf", "battery", func(s int64) serve.Scenario {
		return serve.Scenario{Kind: "battery", Seed: &s, Quick: true, Artifact: serve.ArtifactTrace,
			TraceFormat: "colf", Experiments: []string{"fig8", "table2"}}
	}},
	{"battery-metrics", "battery", func(s int64) serve.Scenario {
		return serve.Scenario{Kind: "battery", Seed: &s, Quick: true, Artifact: serve.ArtifactMetrics,
			Experiments: []string{"fig8", "fig9"}}
	}},
	{"video-fig18b", "battery", func(s int64) serve.Scenario {
		return serve.Scenario{Kind: "battery", Seed: &s, Quick: true, Experiments: []string{"fig18b"}}
	}},
}

// poolEntry is one distinct scenario key of a run.
type poolEntry struct {
	Template int    // index into templates
	Key      string // serve.CanonicalKey
	Body     []byte // the POST /v1/run request body
}

// mixParams sizes the serve-mix schedule.
type mixParams struct {
	Requests int           // arrival slots; a few early ones stay empty
	RatePerS float64       // arrival rate
	MinGap   time.Duration // a repeat targets only keys first requested at least this long before
}

// keysPerTemplate is the number of distinct keys each template contributes,
// whatever the run length, so the pool depends on the seed alone. The
// 160-key pool fits fgservd's default artifact cache (256 entries), so no
// key is evicted and every repeat can be served from the cache.
const keysPerTemplate = 16

// offeredRate is the serve-mix arrival rate in requests per second. It is
// about a tenth of the closed-loop rate at which fgservd serves this mix
// over nproc connections (serve.closed_loop_rps, measured by every traced
// run: 360-570 per second on a 2-vCPU Xeon VM), so a request seldom finds
// every connection busy and latency measures service, not queueing.
const offeredRate = 40.0

// serveMixParams returns the schedule for a run of the given length. At the
// benchmark's 30 s run length about 1170 requests are sent and 86% of them
// are repeats (all but one request per pool key).
func serveMixParams(seconds int) mixParams {
	n := max(int(offeredRate*float64(seconds)), 2*keysPerTemplate*len(templates))
	return mixParams{Requests: n, RatePerS: offeredRate, MinGap: time.Second}
}

// newRand returns the seeded generator for one purpose of the workload;
// distinct streams keep the pool independent of the schedule size.
func newRand(seed int64, streamSeed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 0x5eed0f5e77e5^streamSeed))
}

// buildPool returns the run's distinct keys, keysPerTemplate per template, each
// with its own scenario seed drawn from the workload seed. Entries are in
// template order.
func buildPool(seed int64, p mixParams) ([]poolEntry, error) {
	rng := newRand(seed, 1)
	seen := make(map[string]bool)
	var pool []poolEntry
	for ti, t := range templates {
		for r := 0; r < keysPerTemplate; r++ {
			var e poolEntry
			for {
				sc := t.build(1 + rng.Int64N(1<<30))
				if err := sc.Validate(); err != nil {
					return nil, fmt.Errorf("pool template %s: %w", t.name, err)
				}
				body, err := json.Marshal(&sc)
				if err != nil {
					return nil, fmt.Errorf("pool template %s: %w", t.name, err)
				}
				e = poolEntry{Template: ti, Key: sc.CanonicalKey(), Body: body}
				if !seen[e.Key] {
					break
				}
			}
			seen[e.Key] = true
			pool = append(pool, e)
		}
	}
	return pool, nil
}

// request is one scheduled request.
type request struct {
	Due   time.Duration // offset from the start of the load phase
	Entry int           // index into the pool
	First bool          // first request for its key: expected to miss the cache
}

// buildSchedule draws the open-loop schedule with serve.LoadTest's arrival
// model, arrivals uniform over the window: Requests Poisson arrival slots
// conditioned on their count, over Requests/RatePerS seconds, so every seed
// spans the same length. Exactly len(pool) slots carry first requests (one
// per key, introduced in a seeded order that visits every template once per
// round, spread evenly over the run) and the others carry repeats. A repeat
// goes to the template with the fewest repeats so far (ties in a seeded
// round-robin order), and within it to a key drawn uniformly (as
// serve.LoadTest draws) among those first requested at least MinGap
// earlier, so a repeat finds a completed cache entry rather than joining an
// in-flight generation. Keys introduced early are eligible for longer,
// which skews popularity toward them. A repeat slot with no eligible key in
// any template stays empty.
func buildSchedule(seed int64, p mixParams, pool []poolEntry) []request {
	rng := newRand(seed, 2)
	nt := len(templates)
	span := float64(p.Requests) / p.RatePerS
	times := make([]float64, p.Requests)
	for i := range times {
		times[i] = rng.Float64() * span
	}
	sort.Float64s(times)

	// Introduction order: rounds over the templates, each round shuffled.
	byTmpl := make([][]int, nt)
	for i, e := range pool {
		byTmpl[e.Template] = append(byTmpl[e.Template], i)
	}
	var intro []int
	for r := 0; r < keysPerTemplate; r++ {
		for _, t := range rng.Perm(nt) {
			intro = append(intro, byTmpl[t][r])
		}
	}
	order := rng.Perm(nt) // the repeat round-robin

	reqs := make([]request, 0, p.Requests)
	introducedAt := make([]time.Duration, len(pool))
	introduced := make([]bool, len(pool))
	served := make([]int, nt) // repeats per template
	next, q := 0, 0
	for i, t := range times {
		due := time.Duration(t * float64(time.Second))
		remainingNew, remainingSlots := len(intro)-next, len(times)-i
		if remainingNew > 0 && (remainingNew >= remainingSlots ||
			rng.Float64() < float64(remainingNew)/float64(remainingSlots)) {
			idx := intro[next]
			next++
			introduced[idx] = true
			introducedAt[idx] = due
			reqs = append(reqs, request{Due: due, Entry: idx, First: true})
			continue
		}
		eligible := func(tmpl int) []int {
			var out []int
			for _, idx := range byTmpl[tmpl] {
				if introduced[idx] && due-introducedAt[idx] >= p.MinGap {
					out = append(out, idx)
				}
			}
			return out
		}
		// The template with the fewest repeats so far among those with an
		// eligible key; ties go to the first in round-robin order.
		best := -1
		for k := 0; k < nt; k++ {
			tmpl := order[(q+k)%nt]
			if (best < 0 || served[tmpl] < served[best]) && len(eligible(tmpl)) > 0 {
				best = tmpl
			}
		}
		if best < 0 {
			continue
		}
		q++
		served[best]++
		cands := eligible(best)
		reqs = append(reqs, request{Due: due, Entry: cands[rng.IntN(len(cands))]})
	}
	return reqs
}
