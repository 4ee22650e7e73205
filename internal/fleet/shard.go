package fleet

import (
	"math"

	"fivegsim/internal/transport"
)

// shard is one ownership domain of a campaign: a contiguous UE id range run
// on one goroutine, one UE after another, through a single reused session.
// Shards share only the read-only deployment and disjoint ranges of the
// campaign results slice, so they run without locks.
//
// UEs never interact, so a shard needs no event calendar: each session runs
// straight through from arrival to return to idle on its own clock, and the
// shard moves on to the next UE id. The session clock advances exactly as a
// calendar's would (now + delay, negative or NaN delays clamped to 0), so
// every event time, and every float derived from one, is what an
// interleaving scheduler would have produced.
type shard struct {
	cfg     Config
	dep     *deployment
	results []UEResult  // campaign-wide; this shard writes its own range only
	stats   *ShardStats // stream mode: per-shard fold target (results is nil)
	nchunks int32
	events  uint64 // session steps taken (see Result.Events)
	s       session
}

// session is the state of the one UE a shard is stepping: RRC and channel
// state, CUBIC transport state, ABR buffer state, and power accumulators.
// start overwrites every field, so no state carries from one UE to the next.
type session struct {
	ue  int     // global UE id (index into the campaign results slice)
	rng uint64  // splitmix64 stream state, seeded by UESeed
	now float64 // session clock, sim seconds

	// radio environment
	shadow  float64 // AR(1) shadow fading state, dB
	blocked bool    // mmWave line-of-sight blockage state
	// rsrpBase is the admission-time radio cache: each layer's shadow-free
	// best base RSRP at the UE's (static) position. Filled by start, read
	// by serveCached every chunk.
	rsrpBase []float64

	chunk   int32   // chunks completed
	lastEnd float64 // when the last chunk (or promotion) finished

	// ABR player
	buffer float64
	lastQ  int32
	ring   [3]float64 // recent chunk throughputs (harmonic predictor)
	nring  int32

	// transport (CUBIC state, packets)
	cwnd  float64
	ssth  float64
	wmax  float64
	k     float64 // CUBIC inflection time, cached at each loss
	epoch float64 // time of last loss
	slow  bool

	// accumulators
	arrive  float64
	qoe     float64
	stall   float64
	startup float64
	energyJ float64
	mb      float64 // megabits fetched
	activeS float64 // seconds spent transferring
	nr      int32   // chunks served over an NR layer
}

// newShard prepares a shard of the campaign. Exact-mode shards write
// results; stream-mode shards get their stats target from the caller.
func newShard(cfg Config, dep *deployment, results []UEResult) *shard {
	sh := &shard{cfg: cfg, dep: dep, results: results}
	sh.nchunks = int32(math.Ceil(cfg.SessionS / dep.chunkS))
	if sh.nchunks < 1 {
		sh.nchunks = 1
	}
	sh.s.rsrpBase = make([]float64, len(dep.layers))
	return sh
}

// run simulates the UEs [lo, hi) in id order, each session to completion.
// A UE's arrival time comes from its own (campaignSeed, ueID)-derived
// stream, so the schedule is a property of the population, not of the
// partition.
//
//fgvet:noalloc
func (sh *shard) run(lo, hi int) {
	for ue := lo; ue < hi; ue++ {
		a := arrivalSeed(sh.cfg.Seed, uint64(ue))
		sh.runSession(ue, sh.cfg.WindowS*rngU01(&a))
	}
}

// runSession steps one UE from its arrival at through the session's chunk
// fetches, the (NR) connected tail, and the post-session cascade (NSA LTE
// tail or SA RRC_INACTIVE dwell), then writes its result.
//
//fgvet:noalloc
func (sh *shard) runSession(ue int, at float64) {
	s := &sh.s
	d := sh.dep
	sh.start(ue, at)
	for s.chunk < sh.nchunks {
		sh.advance(sh.stepChunk())
	}
	// The clock now sits at the tail expiry.
	s.energyJ += d.tailJ
	if d.hasCascade {
		sh.advance(d.cascadeS)
		s.energyJ += d.cascadeJ
	}
	sh.finalize()
}

// advance moves the session clock delay seconds forward and counts the
// step. The expression and the clamp are those of an event calendar's
// relative schedule, which keeps every session time bit-identical to it.
//
//fgvet:noalloc
func (sh *shard) advance(delay float64) {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	sh.s.now = sh.s.now + delay
	sh.events++
}

// start begins one UE's session at its arrival time: seed its stream,
// place it on the route, and resolve its radio cache.
//
//fgvet:noalloc
func (sh *shard) start(ue int, at float64) {
	s := &sh.s
	s.ue = ue
	s.rng = UESeed(sh.cfg.Seed, uint64(ue))
	pos := routeKm * rngU01(&s.rng)
	s.now = at
	s.shadow = 0
	s.blocked = false
	s.chunk = 0
	s.lastEnd = at
	s.buffer = 0
	s.lastQ = 0
	s.ring = [3]float64{}
	s.nring = 0
	s.cwnd = initCwndPkts
	s.ssth = math.Inf(1)
	s.wmax = 0
	s.k = 0
	s.epoch = at
	s.slow = true
	s.arrive = at
	s.qoe = 0
	s.stall = 0
	s.startup = 0
	s.energyJ = 0
	s.mb = 0
	s.activeS = 0
	s.nr = 0
	// Admission-time radio cache: the position is static for the whole
	// session, so each layer's shadow-free best base RSRP is resolved once
	// here; serveCached replays only the shadow add and the floor clamp
	// per chunk.
	sh.dep.baseRSRP(pos, s.rsrpBase)
}

// Session model constants. The channel constants discretize the cell
// package's per-second fading to chunk granularity; the ABR constants are
// the buffer-based (reservoir) policy of the ABR experiments; QoE weights
// mirror abr.QoEWeights' shape (smoothness penalty per Mbps of switch,
// rebuffer penalty of one top-rate chunk per stalled second, normalized per
// chunk at finalize).
const (
	shadowSigmaDb = 4.0  // stationary shadow-fading std dev
	shadowRho     = 0.55 // chunk-to-chunk correlation (~4 s steps)
	mmBlockEnter  = 0.12 // P(LoS -> blocked) per chunk
	mmBlockClear  = 0.50 // P(blocked -> LoS) per chunk

	maxBufferS    = 20.0
	reservoirS    = 4.0
	rateSafety    = 0.8 // fetch at most this fraction of predicted rate
	smoothPenalty = 0.5
	rebufPenalty  = 1.0

	tailThresholdS = 0.1 // inter-chunk gap that drops into connected DRX
)

// shadowInnovScale is the AR(1) innovation scale sigma*sqrt(1-rho^2),
// hoisted out of the chunk loop: the subexpression is constant, and Go's
// left-associative evaluation multiplies it by the normal draw last either
// way, so the hoist is bit-identical.
var shadowInnovScale = shadowSigmaDb * math.Sqrt(1-shadowRho*shadowRho)

// stepChunk fetches one video chunk: evolve the channel, pay the RRC
// control-plane delay, pick a track, download it through the CUBIC-lite
// flow, and account buffer/stall/QoE/energy. It returns the delay to the
// session's next step: the next fetch, or after the last chunk the (NR)
// tail expiry, which starts at the last data activity. Everything is
// closed-form or boundedly iterative — no per-chunk allocation.
//
//fgvet:noalloc
func (sh *shard) stepChunk() float64 {
	s := &sh.s
	d := sh.dep
	now := s.now

	// Channel evolution since the previous chunk: mmWave blockage Markov
	// state and AR(1) shadow fading.
	if d.hasMm {
		u := rngU01(&s.rng)
		if s.blocked {
			if u < mmBlockClear {
				s.blocked = false
			}
		} else if u < mmBlockEnter {
			s.blocked = true
		}
	}
	s.shadow = shadowRho*s.shadow + shadowInnovScale*rngNorm(&s.rng)
	la, rsrp, capMbps := d.serveCached(s.rsrpBase, s.shadow, s.blocked)

	// Control-plane delay before the request leaves the UE.
	ctl := 0.0
	if s.chunk == 0 {
		// RRC_IDLE -> CONNECTED: paging-occasion alignment plus the
		// promotion (SA promotes straight to NR; NSA/LTE promote the
		// 4G anchor first and data flows immediately after).
		ctl = rngU01(&s.rng) * d.prim.IdleDRXMs / 1000
		ctl += d.promoS
		s.energyJ += d.switchW * ctl
	} else {
		gap := now - s.lastEnd
		if gap > tailThresholdS {
			// Buffer-full wait spent in connected DRX: the next
			// request waits for the long-DRX wakeup boundary.
			if drx := d.longDRXs; drx > 0 {
				if rem := math.Mod(gap, drx); rem > 1e-9 {
					ctl = drx - rem
				}
			}
		}
		if gap+ctl > 0 {
			s.energyJ += d.tailW * (gap + ctl)
		}
	}

	q := sh.selectTrack()
	bitrate := d.ladder[q]
	sizeMb := bitrate * d.chunkS
	dl := sh.download(la, capMbps, sizeMb, now+ctl)
	thr := sizeMb / dl

	// Transfer energy from the ground-truth power process (§4.4), through
	// the layer's flattened curve — the (device, class) combination was
	// validated when the deployment was built, so there is no error path.
	pw := la.dlPower.PowerMw(thr, rsrp)
	s.energyJ += pw / 1000 * dl

	// Player buffer and QoE accounting.
	fetch := ctl + dl
	if s.chunk == 0 {
		s.startup = now + fetch - s.arrive
	} else if fetch > s.buffer {
		s.stall += fetch - s.buffer
		s.buffer = 0
	} else {
		s.buffer -= fetch
	}
	s.buffer += d.chunkS
	s.qoe += bitrate
	if s.chunk > 0 {
		s.qoe -= smoothPenalty * math.Abs(bitrate-d.ladder[s.lastQ])
	}
	s.lastQ = int32(q)
	s.ring[int(s.nring)%3] = thr
	s.nring++
	s.mb += sizeMb
	s.activeS += dl
	if la.nr {
		s.nr++
	}
	s.chunk++
	s.lastEnd = now + fetch

	if s.chunk < sh.nchunks {
		wait := 0.0
		if s.buffer > maxBufferS {
			wait = s.buffer - maxBufferS
			s.buffer = maxBufferS
		}
		return fetch + wait
	}
	return fetch + d.tailS
}

// finalize writes the UE's result into the campaign slice (its own index:
// no cross-shard contention) or folds it into the shard's stream stats.
//
//fgvet:noalloc
func (sh *shard) finalize() {
	s := &sh.s
	d := sh.dep
	chunks := s.chunk
	qoe := s.qoe - rebufPenalty*d.ladder[len(d.ladder)-1]*s.stall
	mean := 0.0
	if s.activeS > 0 {
		mean = s.mb / s.activeS
	}
	u := UEResult{
		ArrivalS:  s.arrive,
		DurationS: s.now - s.arrive,
		MeanMbps:  mean,
		QoE:       qoe / float64(chunks),
		StallS:    s.stall,
		StartupS:  s.startup,
		EnergyJ:   s.energyJ,
		Chunks:    chunks,
		NRChunks:  s.nr,
	}
	if sh.stats != nil {
		sh.stats.observe(s.ue, u)
	} else {
		sh.results[s.ue] = u
	}
}

// selectTrack is the session's ABR policy: rate-based selection from the
// harmonic mean of the last three chunk throughputs, clamped by a buffer
// reservoir (low buffer forces the lowest track) and a one-step upward
// switch limit for smoothness.
//
//fgvet:noalloc
func (sh *shard) selectTrack() int {
	s := &sh.s
	d := sh.dep
	if s.chunk == 0 || s.nring == 0 {
		return 0
	}
	n := int(s.nring)
	if n > 3 {
		n = 3
	}
	inv, cnt := 0.0, 0
	for j := 0; j < n; j++ {
		if v := s.ring[j]; v > 0 {
			inv += 1 / v
			cnt++
		}
	}
	pred := 0.0
	if cnt > 0 && inv > 0 {
		pred = float64(cnt) / inv
	}
	q := 0
	for k := len(d.ladder) - 1; k > 0; k-- {
		if d.ladder[k] <= pred*rateSafety {
			q = k
			break
		}
	}
	if s.buffer < reservoirS {
		return 0
	}
	if q > int(s.lastQ)+1 {
		q = int(s.lastQ) + 1
	}
	return q
}

// Transport constants: the CUBIC parameters and window accounting of the
// transport package's fluid model, distilled to per-chunk granularity.
const (
	initCwndPkts = 10
	cubicC       = 0.4
	cubicBeta    = 0.7
	// mssMb is one MSS in megabits.
	mssMb = transport.MSSBytes * 8 / 1e6
	// wndCapPkts is the send-buffer window limit for a tuned sender
	// (tcp_wmem raised to 16 MiB, of which ~1/4 is usable in-flight
	// window — transport's wndFraction). This is what window-limits
	// single-flow mmWave throughput.
	wndCapPkts = float64(transport.TunedWmemBytes) * 0.25 / transport.MSSBytes
	// bdpHeadroom bounds cwnd above the path BDP (one BDP of queue).
	bdpHeadroom = 1.1
	// maxRTTIters bounds the per-chunk RTT ladder; a transfer still
	// unfinished after this many windows drains at the steady rate.
	maxRTTIters = 256
)

// download moves sizeMb through the UE's CUBIC-lite flow and returns the
// transfer time. It walks RTT-sized windows (slow-start doubling, then
// cubic growth against the loss epoch) exactly like transport.SimulateTCP,
// but per chunk rather than per measurement run, with cwnd persisting in
// the session across chunks. Radio loss episodes arrive as at most one
// multiplicative decrease per chunk, with probability from the layer's
// episode rate over the transfer window.
//
//fgvet:noalloc
func (sh *shard) download(la *layer, capMbps, sizeMb, start float64) float64 {
	s := &sh.s
	rtt := la.rttS
	// Per-call CUBIC state lives in registers: ssth/wmax/k/epoch are only
	// rewritten by the loss branch after the ladder, so inside the loop they
	// are plain loop-invariant locals, not per-iteration session loads.
	cwnd := s.cwnd
	slow := s.slow
	ssth := s.ssth
	wmax := s.wmax
	kk := s.k
	epoch := s.epoch
	capPerRTT := capMbps * rtt // megabits the link drains per RTT
	bdpPkts := capPerRTT / mssMb
	bdpCap := bdpPkts * bdpHeadroom
	remaining := sizeMb
	t := 0.0
	for iter := 0; iter < maxRTTIters && remaining > 0; iter++ {
		w := cwnd
		if w > wndCapPkts {
			w = wndCapPkts
		}
		perRTT := w * mssMb
		rate := perRTT / rtt
		if rate > capMbps {
			rate = capMbps
			perRTT = capPerRTT
		}
		// Once cwnd sits exactly at the BDP cap, the window update below is
		// a fixed point on both of its branches:
		//   - congestion avoidance (!slow): a cubic target above cwnd clamps
		//     back to bdpCap, and a target at or below it leaves cwnd as is;
		//   - slow start (slow && cwnd < ssth): cwnd doubles above bdpCap and
		//     the clamp restores bdpCap; slow and ssth are untouched, so the
		//     next window takes the same branch.
		// cwnd >= 2 holds at every entry (it starts at 10 and every update
		// floors it at 2), so cwnd == bdpCap implies bdpCap >= 2 and the
		// floor is a no-op as well. The window, per-RTT volume, and rate are
		// then loop-invariant and the rest of the transfer drains in a
		// tight subtract/add loop — bit-identical to walking the full
		// update, because every skipped update is a no-op. At the cap, the
		// one window this test leaves to the walk is slow start reaching
		// ssth, which clears slow.
		if cwnd == bdpCap && (!slow || cwnd < ssth) {
			for ; iter < maxRTTIters && remaining > perRTT; iter++ {
				remaining -= perRTT
				t += rtt
			}
			if iter < maxRTTIters {
				t += remaining / rate
				remaining = 0
			}
			break
		}
		if remaining <= perRTT {
			t += remaining / rate
			remaining = 0
			break
		}
		remaining -= perRTT
		t += rtt
		if slow && cwnd < ssth {
			cwnd *= 2
		} else {
			slow = false
			et := start + t - epoch
			dd := et - kk
			target := cubicC*dd*dd*dd + wmax
			if target > cwnd {
				if g := cwnd * 1.5; target > g { // bound per-RTT jump
					target = g
				}
				cwnd = target
			}
		}
		if cwnd > bdpCap {
			cwnd = bdpCap
		}
		if cwnd < 2 {
			cwnd = 2
		}
	}
	if remaining > 0 {
		// Pathologically slow link: drain the rest at the steady rate.
		w := cwnd
		if w > wndCapPkts {
			w = wndCapPkts
		}
		rate := w * mssMb / rtt
		if rate > capMbps {
			rate = capMbps
		}
		if rate < outageFloorMbps {
			rate = outageFloorMbps
		}
		t += remaining / rate
	}
	// Radio loss episodes over the transfer window, utilization-gated as
	// in SimulateTCP: a window-limited flow rides out a short dip.
	util := (sizeMb / t) / capMbps
	if util > 1 {
		util = 1
	}
	if rngU01(&s.rng) < 1-math.Exp(-la.lossEv*util*t) {
		s.wmax = cwnd
		s.k = math.Cbrt(s.wmax * (1 - cubicBeta) / cubicC)
		cwnd = math.Max(2, cwnd*cubicBeta)
		s.ssth = cwnd
		s.epoch = start + t
		slow = false
	}
	s.slow = slow
	s.cwnd = cwnd
	return t
}
