// Package serve turns the deterministic simulation library into a
// long-running scenario service: an HTTP daemon (stdlib net/http only) that
// accepts scenario configs as JSON, schedules them on the existing worker
// machinery (experiments.RunManyCtx's LPT pool for batteries, fleet's
// shards for campaigns), and streams the requested artifact — rendered
// tables, obs trace JSONL or colf bytes, metrics CSV — back in chunks as it
// is produced.
//
// The determinism contract is what makes serving nearly free: every
// artifact is a pure function of (scenario, seed), so a response is keyed
// by the canonicalized scenario and cached with single-flight
// de-duplication, the same discipline trace.Cache applies to trace sets.
// Repeat requests replay byte-identical artifacts without re-simulating.
//
// Run is the one scenario pipeline: fgrepro and fgfleet are thin adapters
// that map their flags to a Scenario and call it with their stdout and
// artifact files, so served bytes equal offline bytes by construction.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"fivegsim/internal/experiments"
	"fivegsim/internal/fleet"
	"fivegsim/internal/obs"
	"fivegsim/internal/obs/colf"
)

// Artifact names which rendered output of a scenario the response carries.
const (
	ArtifactTable   = "table"
	ArtifactTrace   = "trace"
	ArtifactMetrics = "metrics"
)

// Scenario is the request body of POST /v1/run: one battery or fleet run
// plus the artifact selection. Zero values mean the CLI defaults (seed 1,
// artifact "table", trace format "jsonl", every experiment / every mix), so
// the canonical key of an omitted field equals the key of its explicit
// default.
type Scenario struct {
	// Kind selects the runner: "battery" (the fgrepro experiment battery)
	// or "fleet" (an fgfleet population campaign).
	Kind string `json:"kind"`
	// Seed drives all randomness; nil means 1, the CLI default.
	Seed *int64 `json:"seed,omitempty"`
	// Artifact is "table" (default), "trace", or "metrics".
	Artifact string `json:"artifact,omitempty"`
	// TraceFormat is "jsonl" (default) or "colf"; trace artifact only.
	TraceFormat string `json:"trace_format,omitempty"`

	// Experiments lists battery experiment ids; empty means all (the
	// `fgrepro all` battery). Battery kind only.
	Experiments []string `json:"experiments,omitempty"`
	// Quick selects the reduced-repeat battery (`fgrepro -quick`).
	// Battery kind only.
	Quick bool `json:"quick,omitempty"`

	// Fleet parameterises the campaign; required for kind "fleet".
	Fleet *FleetScenario `json:"fleet,omitempty"`
}

// FleetScenario mirrors the fgfleet flags. Mix "all" (the default) runs one
// campaign per deployment mix, exactly like the CLI.
type FleetScenario struct {
	UEs        int     `json:"ues"`
	Shards     int     `json:"shards,omitempty"` // never part of the cache key: output is shard-invariant
	Mix        string  `json:"mix,omitempty"`
	WindowS    float64 `json:"window_s,omitempty"`
	SessionS   float64 `json:"session_s,omitempty"`
	Stream     bool    `json:"stream,omitempty"`
	SketchK    int     `json:"sketch_k,omitempty"`
	TraceEvery int     `json:"trace_every,omitempty"`
}

// ParseScenario decodes and validates a request body. Unknown fields are
// rejected: a typoed knob must fail loudly, never silently run the default
// scenario.
func ParseScenario(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("malformed scenario JSON: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// seed returns the effective seed (nil means the CLI default, 1).
func (sc *Scenario) seed() int64 {
	if sc.Seed == nil {
		return 1
	}
	return *sc.Seed
}

// artifact returns the effective artifact selection.
func (sc *Scenario) artifact() string {
	if sc.Artifact == "" {
		return ArtifactTable
	}
	return sc.Artifact
}

// traceFormat returns the effective trace encoding.
func (sc *Scenario) traceFormat() string {
	if sc.TraceFormat == "" {
		return "jsonl"
	}
	return sc.TraceFormat
}

// batteryIDs returns the battery's effective experiment list (empty means
// every registered experiment, in sorted id order — `fgrepro all`).
func (sc *Scenario) batteryIDs() []string {
	if len(sc.Experiments) == 0 {
		return experiments.IDs()
	}
	return sc.Experiments
}

// fleetConfig builds the (validated, defaulted) campaign config for one mix.
func (sc *Scenario) fleetConfig(mix fleet.Mix) fleet.Config {
	f := sc.Fleet
	return fleet.Config{
		Seed:       sc.seed(),
		UEs:        f.UEs,
		Shards:     f.Shards,
		Mix:        mix,
		WindowS:    f.WindowS,
		SessionS:   f.SessionS,
		Stream:     f.Stream,
		SketchK:    f.SketchK,
		TraceEvery: f.TraceEvery,
	}.Defaulted()
}

// fleetMixes resolves the scenario's mix selection ("" and "all" mean every
// mix, in table order).
func (sc *Scenario) fleetMixes() ([]fleet.Mix, error) {
	name := sc.Fleet.Mix
	if name == "" || name == "all" {
		return fleet.AllMixes, nil
	}
	m, err := fleet.MixByName(name)
	if err != nil {
		return nil, err
	}
	return []fleet.Mix{m}, nil
}

// Validate rejects a scenario Run could not execute. fgservd, fgrepro, and
// fgfleet all validate through it before running anything or creating any
// artifact, so every front end refuses the same inputs, and the fleet
// library's own Config.Validate agrees.
func (sc *Scenario) Validate() error {
	switch sc.artifact() {
	case ArtifactTable, ArtifactTrace, ArtifactMetrics:
	default:
		return fmt.Errorf("artifact must be table, trace, or metrics (got %q)", sc.Artifact)
	}
	switch sc.traceFormat() {
	case "jsonl", "colf":
	default:
		return fmt.Errorf("trace_format must be jsonl or colf (got %q)", sc.TraceFormat)
	}
	switch sc.Kind {
	case "battery":
		if sc.Fleet != nil {
			return fmt.Errorf("battery scenario must not carry a fleet config")
		}
		known := make(map[string]bool)
		for _, id := range experiments.IDs() {
			known[id] = true
		}
		for _, id := range sc.Experiments {
			if !known[id] {
				return fmt.Errorf("unknown experiment %q", id)
			}
		}
	case "fleet":
		if sc.Fleet == nil {
			return fmt.Errorf("fleet scenario requires a fleet config")
		}
		if sc.Quick || len(sc.Experiments) > 0 {
			return fmt.Errorf("fleet scenario must not carry battery knobs (quick, experiments)")
		}
		mixes, err := sc.fleetMixes()
		if err != nil {
			return err
		}
		// Validate the library config for one mix; the knobs are identical
		// across mixes.
		if err := sc.fleetConfig(mixes[0]).Validate(); err != nil {
			return err
		}
	case "":
		return fmt.Errorf("kind is required: battery or fleet")
	default:
		return fmt.Errorf("kind must be battery or fleet (got %q)", sc.Kind)
	}
	return nil
}

// CanonicalKey renders the scenario in a normalized, defaults-resolved form:
// equal keys produce byte-identical artifacts, so the key is the cache key.
// Fleet shard count never enters the key — by the fleet determinism
// contract it cannot change a byte of output.
func (sc *Scenario) CanonicalKey() string {
	var b strings.Builder
	b.WriteString(sc.Kind)
	b.WriteString(" seed=")
	b.WriteString(strconv.FormatInt(sc.seed(), 10))
	b.WriteString(" artifact=")
	b.WriteString(sc.artifact())
	if sc.artifact() == ArtifactTrace {
		b.WriteString(" format=")
		b.WriteString(sc.traceFormat())
	}
	switch sc.Kind {
	case "battery":
		fmt.Fprintf(&b, " quick=%t ids=%s", sc.Quick, strings.Join(sc.batteryIDs(), ","))
	case "fleet":
		f := sc.Fleet
		mix := f.Mix
		if mix == "" {
			mix = "all"
		}
		cfg := sc.fleetConfig(fleet.MixLowBand) // mix rendered separately
		fmt.Fprintf(&b, " ues=%d mix=%s window=%s session=%s stream=%t sketchk=%d every=%d",
			cfg.UEs, mix,
			strconv.FormatFloat(cfg.WindowS, 'g', -1, 64),
			strconv.FormatFloat(cfg.SessionS, 'g', -1, 64),
			cfg.Stream, cfg.SketchK, cfg.TraceEvery)
	}
	return b.String()
}

// ContentType returns the response media type of the scenario's artifact.
func (sc *Scenario) ContentType() string {
	switch sc.artifact() {
	case ArtifactTrace:
		if sc.traceFormat() == "colf" {
			return "application/octet-stream"
		}
		return "application/x-ndjson"
	case ArtifactMetrics:
		return "text/csv; charset=utf-8"
	}
	return "text/plain; charset=utf-8"
}

// Outputs selects the artifacts one Run writes, each to its own writer; a
// nil writer skips that artifact (and the collection only it needs).
type Outputs struct {
	// Table receives the rendered tables: fgrepro/fgfleet stdout.
	Table io.Writer
	// Trace receives the trace artifact, encoded per the scenario's
	// TraceFormat. Fleet traces stream as campaigns merge.
	Trace io.Writer
	// Metrics receives the metrics CSV.
	Metrics io.Writer
}

// Report is what a Run measured besides its artifacts: the wall-clock
// accounting the CLIs' -stats tables print. Nothing in it reaches an
// artifact byte.
type Report struct {
	// Results holds a battery's experiments in id order.
	Results []experiments.Result
	// Campaigns holds a fleet run's campaigns, one per mix in table order.
	Campaigns []Campaign
}

// Campaign is one completed fleet campaign and the host wall time it took.
type Campaign struct {
	Result *fleet.Result
	Wall   time.Duration
}

// Run executes a validated scenario and writes every requested artifact in
// one pass. It is the only battery and fleet pipeline: fgrepro, fgfleet,
// and fgservd all call it, so served bytes equal offline bytes by
// construction. workers bounds the battery's experiment pool (<= 0 means
// GOMAXPROCS; the bytes are identical for any value); fleet campaigns
// shard by sc.Fleet.Shards instead.
//
// Collection costs only what the outputs need: a battery collects obs
// records only for a trace or metrics output, and a fleet campaign keeps
// an obs root only for metrics — its trace streams through the
// shard-parallel fleet.Spill, so trace memory stays O(block) regardless of
// population size.
//
// Cancellation is cooperative at reduce-step granularity: between battery
// experiments (RunManyCtx) and between fleet campaigns. A canceled run
// returns ctx's error; whatever bytes were already written must be
// discarded by the caller.
func Run(ctx context.Context, sc *Scenario, workers int, out Outputs) (Report, error) {
	switch sc.Kind {
	case "battery":
		return runBattery(ctx, sc, workers, out)
	case "fleet":
		return runFleet(ctx, sc, out)
	}
	return Report{}, fmt.Errorf("kind must be battery or fleet (got %q)", sc.Kind)
}

// RunScenario runs the scenario with its selected artifact written to w,
// on GOMAXPROCS battery workers.
func RunScenario(ctx context.Context, sc *Scenario, w io.Writer) error {
	_, err := Run(ctx, sc, 0, sc.outputs(w))
	return err
}

// outputs routes w to the scenario's selected artifact.
func (sc *Scenario) outputs(w io.Writer) Outputs {
	switch sc.artifact() {
	case ArtifactTrace:
		return Outputs{Trace: w}
	case ArtifactMetrics:
		return Outputs{Metrics: w}
	}
	return Outputs{Table: w}
}

// runBattery runs the experiments over the LPT worker pool, then renders
// the tables and the obs artifacts in id order.
func runBattery(ctx context.Context, sc *Scenario, workers int, out Outputs) (Report, error) {
	cfg := experiments.Config{Seed: sc.seed(), Quick: sc.Quick}
	if out.Trace != nil || out.Metrics != nil {
		// A non-nil collector tells RunManyCtx to hand every experiment
		// its own registry; the instrumented subsystems record into it.
		cfg.Obs = obs.New()
	}
	results, err := experiments.RunManyCtx(ctx, cfg, sc.batteryIDs(), workers)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Results: results}
	if out.Table != nil {
		for _, r := range results {
			for _, t := range r.Tables {
				if _, err := fmt.Fprintln(out.Table, t); err != nil {
					return rep, fmt.Errorf("writing table: %w", err)
				}
			}
		}
	}
	if out.Trace != nil {
		var enc obs.TraceEncoder
		if sc.traceFormat() == "colf" {
			enc = colf.NewWriter(out.Trace)
		} else {
			enc = obs.NewTraceJSONWriter(out.Trace)
		}
		if err := experiments.WriteTrace(enc, results); err != nil {
			return rep, err
		}
		if err := enc.Flush(); err != nil {
			return rep, err
		}
	}
	if out.Metrics != nil {
		return rep, experiments.WriteMetrics(out.Metrics, results)
	}
	return rep, nil
}

// runFleet runs one campaign per mix, streaming the trace through the
// shard-parallel Spill as each campaign merges, then renders the exact or
// stream table and the headerless metrics CSV.
func runFleet(ctx context.Context, sc *Scenario, out Outputs) (Report, error) {
	mixes, err := sc.fleetMixes()
	if err != nil {
		return Report{}, err
	}
	var root *obs.Obs
	if out.Metrics != nil {
		root = obs.New()
	}
	var spill *fleet.Spill
	if out.Trace != nil {
		if sc.traceFormat() == "colf" {
			spill = fleet.NewColfSpill(out.Trace, "fleet")
		} else {
			spill = fleet.NewJSONLSpill(out.Trace, "fleet")
		}
	}
	var rep Report
	rs := make([]*fleet.Result, 0, len(mixes))
	for _, mix := range mixes {
		// The cancellation point: an in-flight request that lost its client
		// (or hit its timeout) stops between campaigns, not after all mixes.
		if err := ctx.Err(); err != nil {
			return Report{}, fmt.Errorf("fleet scenario canceled: %w", err)
		}
		cfg := sc.fleetConfig(mix)
		sub := obs.Sub(root)
		cfg.Obs = sub
		if spill != nil {
			cfg.Spill = spill
			cfg.SpillTags = []obs.Field{obs.S("mix", mix.String())}
		}
		start := time.Now() //fgvet:allow walltime per-campaign wall time for the -stats report, never an artifact byte
		r, err := fleet.Run(cfg)
		if err != nil {
			return Report{}, err
		}
		wall := time.Since(start) //fgvet:allow walltime per-campaign wall time for the -stats report, never an artifact byte
		root.MergeTagged(sub, obs.S("mix", mix.String()))
		rep.Campaigns = append(rep.Campaigns, Campaign{Result: r, Wall: wall})
		rs = append(rs, r)
	}
	if err := ctx.Err(); err != nil {
		return Report{}, fmt.Errorf("fleet scenario canceled: %w", err)
	}
	if out.Table != nil {
		table := experiments.FleetTable
		if sc.Fleet.Stream {
			table = experiments.FleetStreamTable
		}
		if _, err := fmt.Fprintln(out.Table, table(rs)); err != nil {
			return rep, fmt.Errorf("writing table: %w", err)
		}
	}
	if spill != nil {
		if err := spill.Close(); err != nil {
			return rep, err
		}
	}
	if out.Metrics != nil {
		// The fleet metrics CSV has no header line.
		return rep, obs.WriteMetricsCSV(out.Metrics, "fleet", root.Meter())
	}
	return rep, nil
}
