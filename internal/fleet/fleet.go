// Package fleet runs city-scale population campaigns: 100k-1M UEs
// streaming over a shared tower deployment, partitioned across N
// independent shards (default one per core).
//
// Each shard owns a contiguous UE id range and runs it on one goroutine,
// UE after UE in id order: a session goes straight through from arrival to
// return to idle on its own clock, in one reused session struct holding the
// UE's RRC phase, CUBIC transport state, ABR buffer state, and power
// accumulators. UEs never interact, so no event calendar interleaves them;
// a shard's memory is O(1) apart from the exact-mode results slice.
//
// Determinism contract: campaign output — tables, CDFs, and obs artifacts —
// is byte-identical at any shard count, including 1. Three rules make that
// hold by construction:
//
//  1. Per-UE randomness derives from (campaignSeed, ueID) only (rng.go).
//  2. UEs never interact: a session reads the shared read-only deployment,
//     its own session state, and its own stream; shards write disjoint
//     ranges of one results slice, indexed by global UE id.
//  3. All aggregation happens in a serial reduce over the results slice in
//     UE id order after every shard joins — the EvaluateWorkers /
//     obs.Sub+MergeTagged pattern, with the UE id as the fold order.
package fleet

import (
	"fmt"
	"runtime"
	"sync"

	"fivegsim/internal/obs"
)

// Config parameterises a campaign.
type Config struct {
	// Seed drives all randomness, via UESeed(Seed, ueID).
	Seed int64
	// UEs is the population size.
	UEs int
	// Shards is the number of shards; <= 0 means GOMAXPROCS.
	// Output does not depend on it.
	Shards int
	// Mix selects the tower deployment (see Mix).
	Mix Mix
	// WindowS is the arrival window: session starts are uniform over
	// [0, WindowS). 0 means 600 (a ten-minute city hour).
	WindowS float64
	// SessionS is the video length per UE. 0 means 32.
	SessionS float64
	// Obs, when enabled, receives population CDF histograms, campaign
	// counters, and sampled per-session trace records from the reduce.
	// It never changes the tables, and shard count never changes its
	// bytes. nil costs nothing.
	Obs *obs.Obs
	// TraceEvery samples every k-th UE for a per-session trace record;
	// 0 derives a stride targeting ~512 records per campaign.
	TraceEvery int
	// Stream, when true, drops the O(UEs) results slice: shards fold
	// finished sessions into ShardStats as they go and the campaign keeps
	// O(shards) state (see stream.go). Result.UEs is nil and Result.Stream
	// holds the merged stats; the trace artifact is byte-identical to
	// exact mode, and all obs artifacts remain byte-identical across
	// shard counts.
	Stream bool
	// SketchK is the per-metric quantile sketch size in stream mode;
	// <= 0 means DefaultSketchK.
	SketchK int
	// Spill, when non-nil, streams the sampled per-session trace records
	// to the spill's artifact writer with shard-parallel encoding (see
	// Spill), instead of emitting them into Obs's tracer. Metrics and
	// histograms still flow through Obs. The artifact bytes are identical
	// to accumulating the records in Obs and encoding them once, at any
	// shard count.
	Spill *Spill
	// SpillTags are appended to every spilled record, in order — the
	// counterpart of the MergeTagged tags of the Obs path (e.g. the mix
	// tag fgfleet attaches per campaign).
	SpillTags []obs.Field
}

// Defaulted returns the config with every zero-means-default knob resolved
// to its actual value (Shards excepted: it stays 0 for GOMAXPROCS, since the
// resolved value is host-dependent and — by the determinism contract —
// cannot affect campaign output). Canonical scenario keys (internal/serve)
// are built from the defaulted config so "window omitted" and "window 600"
// cache as the same campaign.
func (c Config) Defaulted() Config {
	shards := c.Shards
	c = c.withDefaults()
	c.Shards = shards
	return c
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.WindowS == 0 {
		c.WindowS = 600
	}
	if c.SessionS == 0 {
		c.SessionS = 32
	}
	return c
}

// UEResult is one UE's session summary, written by its owning shard at
// results[ueID] and read only after all shards join.
type UEResult struct {
	ArrivalS  float64 // session start (sim time)
	DurationS float64 // arrival through return to idle
	MeanMbps  float64 // goodput while transferring
	QoE       float64 // per-chunk QoE (bitrate - switch - rebuffer terms)
	StallS    float64
	StartupS  float64
	EnergyJ   float64 // radio energy, promotion through idle
	Chunks    int32
	NRChunks  int32 // chunks served over an NR layer (vs LTE fallback)
}

// Result is a completed campaign. Exactly one of UEs and Stream is
// populated: per-UE results in exact mode, merged streaming stats in
// stream mode.
type Result struct {
	Cfg    Config
	UEs    []UEResult  // indexed by UE id; nil in stream mode
	Stream *ShardStats // merged streaming stats; nil in exact mode
	// Events counts session steps across all shards: every advance of a
	// session clock after its arrival — the chunk fetches that follow the
	// first, tail expiries, and cascade ends. It is a pure function of the
	// population (the same at any shard count), not of the partition.
	Events uint64
}

// Extraction helpers for the population CDFs. Each returns a fresh slice in
// UE id order.
func (r *Result) ThroughputsMbps() []float64 {
	return r.extract(func(u UEResult) float64 { return u.MeanMbps })
}

// QoEs returns the per-chunk QoE of every UE.
func (r *Result) QoEs() []float64 { return r.extract(func(u UEResult) float64 { return u.QoE }) }

// EnergiesJ returns the per-session radio energy of every UE.
func (r *Result) EnergiesJ() []float64 {
	return r.extract(func(u UEResult) float64 { return u.EnergyJ })
}

// StallsS returns the total rebuffering time of every UE.
func (r *Result) StallsS() []float64 { return r.extract(func(u UEResult) float64 { return u.StallS }) }

func (r *Result) extract(f func(UEResult) float64) []float64 {
	out := make([]float64, len(r.UEs))
	for i, u := range r.UEs {
		out[i] = f(u)
	}
	return out
}

// NRShare returns the fraction of chunks served over an NR layer.
func (r *Result) NRShare() float64 {
	var nr, total int64
	for _, u := range r.UEs {
		nr += int64(u.NRChunks)
		total += int64(u.Chunks)
	}
	if total == 0 {
		return 0
	}
	return float64(nr) / float64(total)
}

// Range is a contiguous UE id interval [Lo, Hi).
type Range struct{ Lo, Hi int }

// Partition splits n UEs into the given number of contiguous ranges with
// sizes differing by at most one (the first n%shards ranges get the extra
// UE). Empty ranges are dropped, so shards > n is safe.
func Partition(n, shards int) []Range {
	if shards < 1 {
		shards = 1
	}
	base, rem := n/shards, n%shards
	out := make([]Range, 0, shards)
	lo := 0
	for s := 0; s < shards; s++ {
		size := base
		if s < rem {
			size++
		}
		if size == 0 {
			continue
		}
		out = append(out, Range{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// Run executes a campaign: fan the population out over shards, join, then
// reduce serially in UE id order. It fails before any shard starts when the
// campaign cannot be built — a config that Validate rejects, an unknown
// mix, or a deployment layer whose (device, band-class) pair has no
// measured power curve — and after the join when a shard panicked, naming
// the lowest failing shard; a bad campaign fails its caller, not the
// process.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	dep, err := newDeployment(cfg.Mix)
	if err != nil {
		return nil, err
	}
	var results []UEResult
	var shardStats []*ShardStats
	ranges := Partition(cfg.UEs, cfg.Shards)
	if cfg.Stream {
		// O(shards) memory: no results slice, one ShardStats per shard.
		shardStats = make([]*ShardStats, len(ranges))
		for si := range shardStats {
			shardStats[si] = newShardStats(cfg)
		}
	} else {
		results = make([]UEResult, cfg.UEs)
	}
	var segs []spillSeg
	var spillBase uint64
	every := traceStride(cfg.UEs, cfg.TraceEvery)
	if cfg.Spill != nil {
		segs = make([]spillSeg, len(ranges))
		spillBase = cfg.Spill.base
	}
	events := make([]uint64, len(ranges))
	panics := make([]error, len(ranges))
	var wg sync.WaitGroup
	for si, rg := range ranges {
		wg.Add(1)
		go func(si int, rg Range) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[si] = fmt.Errorf("fleet: shard %d (UEs [%d, %d)) panicked: %v", si, rg.Lo, rg.Hi, p)
				}
			}()
			// Shards touch only results[rg.Lo:rg.Hi] (exact mode) or
			// their private shardStats[si] (stream mode).
			sh := newShard(cfg, dep, results)
			if cfg.Stream {
				sh.stats = shardStats[si]
			}
			sh.run(rg.Lo, rg.Hi)
			events[si] = sh.events
			if segs != nil {
				// Encode this shard's slice of the trace artifact here,
				// concurrently with the other shards, at its precomputed
				// offset in the global record stream.
				segs[si] = cfg.Spill.encodeSeg(
					sh.samples(rg, every), cfg.SpillTags,
					spillBase+sampledBelow(rg.Lo, every))
			}
		}(si, rg)
	}
	wg.Wait()
	for _, err := range panics {
		if err != nil {
			return nil, err
		}
	}
	if segs != nil {
		if err := cfg.Spill.stitch(segs, sampledBelow(cfg.UEs, every)); err != nil {
			return nil, fmt.Errorf("fleet: trace spill: %w", err)
		}
	}
	res := &Result{Cfg: cfg, UEs: results}
	for _, e := range events {
		res.Events += e
	}
	if cfg.Stream {
		// Merge in shard order. Shards own ascending id ranges and observe
		// their sessions in id order, so the merged sample list comes out
		// sorted by UE id; every other merged component is order-invariant
		// (see stream.go).
		merged := newShardStats(cfg)
		for _, st := range shardStats {
			if err := merged.merge(st); err != nil {
				// Unreachable: all shard sketches share cfg-derived
				// geometry. Fail loudly rather than drop a shard.
				panic(err)
			}
		}
		res.Stream = merged
		streamReduce(cfg, res)
		return res, nil
	}
	reduce(cfg, res)
	return res, nil
}

// Population histogram bounds for the obs CDFs.
var (
	tputBounds   = []float64{1, 2, 5, 10, 20, 50, 100, 200, 400, 800, 1600}
	qoeBounds    = []float64{-40, -10, 0, 5, 10, 20, 40, 80, 160}
	energyBounds = []float64{5, 10, 20, 40, 80, 160, 320}
	stallBounds  = []float64{0.1, 0.5, 1, 2, 5, 10, 30, 60}
)

// reduce folds the campaign into the obs collector, strictly in UE id
// order. Shard boundaries are invisible here: every observation, counter,
// and sampled trace record depends only on (ueID, results[ueID]) and the
// sampling stride, so the artifact bytes cannot depend on the shard count.
func reduce(cfg Config, res *Result) {
	if !cfg.Obs.Enabled() {
		return
	}
	m := cfg.Obs.Meter()
	tr := cfg.Obs.Trace()
	tputH := m.Hist("fleet.tput_mbps", tputBounds)
	qoeH := m.Hist("fleet.qoe", qoeBounds)
	energyH := m.Hist("fleet.energy_j", energyBounds)
	stallH := m.Hist("fleet.stall_s", stallBounds)
	every := traceStride(len(res.UEs), cfg.TraceEvery)
	var rec obs.Record
	for id, u := range res.UEs {
		tputH.Observe(u.MeanMbps)
		qoeH.Observe(u.QoE)
		energyH.Observe(u.EnergyJ)
		stallH.Observe(u.StallS)
		m.Add("fleet.chunks", float64(u.Chunks))
		m.Add("fleet.nr_chunks", float64(u.NRChunks))
		m.Add("fleet.stall_s_total", u.StallS)
		// With a Spill the sampled records reach the artifact through the
		// shard-parallel path instead of the tracer.
		if cfg.Spill == nil && id%every == 0 {
			sessionRecord(&rec, id, &u, nil)
			tr.Emit(rec)
		}
	}
	// Note: res.Events is deliberately NOT folded into obs. It counts
	// simulator work rather than anything the sessions produced, and the
	// artifacts carry only the latter.
	m.Add("fleet.ues", float64(len(res.UEs)))
}
