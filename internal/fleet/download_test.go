package fleet

import (
	"math"
	"testing"
)

// downloadWalk is the reference CUBIC-lite ladder: download with no drain
// fast path, walking the full window update for every RTT. The production
// download must return the same transfer time and leave the same session
// state, bit for bit, for every state the kernel can reach.
func (sh *shard) downloadWalk(la *layer, capMbps, sizeMb, start float64) float64 {
	s := &sh.s
	rtt := la.rttS
	capPerRTT := capMbps * rtt
	bdpCap := capPerRTT / mssMb * bdpHeadroom
	remaining := sizeMb
	t := 0.0
	for iter := 0; iter < maxRTTIters && remaining > 0; iter++ {
		w := s.cwnd
		if w > wndCapPkts {
			w = wndCapPkts
		}
		perRTT := w * mssMb
		rate := perRTT / rtt
		if rate > capMbps {
			rate = capMbps
			perRTT = capPerRTT
		}
		if remaining <= perRTT {
			t += remaining / rate
			remaining = 0
			break
		}
		remaining -= perRTT
		t += rtt
		if s.slow && s.cwnd < s.ssth {
			s.cwnd *= 2
		} else {
			s.slow = false
			et := start + t - s.epoch
			dd := et - s.k
			target := cubicC*dd*dd*dd + s.wmax
			if target > s.cwnd {
				if g := s.cwnd * 1.5; target > g {
					target = g
				}
				s.cwnd = target
			}
		}
		if s.cwnd > bdpCap {
			s.cwnd = bdpCap
		}
		if s.cwnd < 2 {
			s.cwnd = 2
		}
	}
	if remaining > 0 {
		w := s.cwnd
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
	util := (sizeMb / t) / capMbps
	if util > 1 {
		util = 1
	}
	if rngU01(&s.rng) < 1-math.Exp(-la.lossEv*util*t) {
		s.wmax = s.cwnd
		s.k = math.Cbrt(s.wmax * (1 - cubicBeta) / cubicC)
		s.cwnd = math.Max(2, s.cwnd*cubicBeta)
		s.ssth = s.cwnd
		s.epoch = start + t
		s.slow = false
	}
	return t
}

// ladderState is the session state download reads and writes.
type ladderState struct {
	cwnd, ssth, wmax, k, epoch float64
	slow                       bool
	rng                        uint64
}

func (st ladderState) load(s *session) {
	s.cwnd, s.ssth, s.wmax, s.k, s.epoch = st.cwnd, st.ssth, st.wmax, st.k, st.epoch
	s.slow, s.rng = st.slow, st.rng
}

func saveLadder(s *session) ladderState {
	return ladderState{cwnd: s.cwnd, ssth: s.ssth, wmax: s.wmax, k: s.k, epoch: s.epoch,
		slow: s.slow, rng: s.rng}
}

// sameBits reports whether two ladder states are identical bit for bit
// (NaN payloads included).
func (st ladderState) sameBits(o ladderState) bool {
	b := math.Float64bits
	return b(st.cwnd) == b(o.cwnd) && b(st.ssth) == b(o.ssth) && b(st.wmax) == b(o.wmax) &&
		b(st.k) == b(o.k) && b(st.epoch) == b(o.epoch) && st.slow == o.slow && st.rng == o.rng
}

// ladderLayers returns every distinct layer of the built-in deployments:
// each one's RTT and loss-episode rate, the outage layer included.
func ladderLayers(tb testing.TB) []*layer {
	var out []*layer
	for _, mix := range AllMixes {
		d, err := newDeployment(mix)
		if err != nil {
			tb.Fatal(err)
		}
		for i := range d.layers {
			out = append(out, &d.layers[i])
		}
	}
	return out
}

// checkLadder runs download and downloadWalk from the same state and fails
// unless the transfer time and the final state agree bit for bit.
func checkLadder(t *testing.T, la *layer, st ladderState, capMbps, sizeMb, start float64) {
	t.Helper()
	var fast, walk shard
	st.load(&fast.s)
	st.load(&walk.s)
	gotT := fast.download(la, capMbps, sizeMb, start)
	wantT := walk.downloadWalk(la, capMbps, sizeMb, start)
	got, want := saveLadder(&fast.s), saveLadder(&walk.s)
	if math.Float64bits(gotT) != math.Float64bits(wantT) || !got.sameBits(want) {
		t.Fatalf("rtt=%v lossEv=%v cap=%v size=%v start=%v from %+v:\n"+
			"download     t=%v state %+v\ndownloadWalk t=%v state %+v",
			la.rttS, la.lossEv, capMbps, sizeMb, start, st, gotT, got, wantT, want)
	}
}

// bdpCapOf is download's BDP clamp for a layer and capacity, computed in
// the same operation order so a state can sit on it exactly.
func bdpCapOf(la *layer, capMbps float64) float64 {
	return capMbps * la.rttS / mssMb * bdpHeadroom
}

// TestDownloadMatchesWalk holds download's drain fast path to the full
// per-window walk from seeded random session states covering every way
// into and out of the ladder: slow start already at the BDP cap or reaching
// ssth there, cwnd above a smaller new cap, a window-capped flow, post-loss
// cubic growth, the maxRTTIters exit, and the outage floor.
func TestDownloadMatchesWalk(t *testing.T) {
	layers := ladderLayers(t)
	rng := UESeed(16, 0)
	u := func() float64 { return rngU01(&rng) }
	// postLoss fills the CUBIC state a loss at window wmax leaves behind.
	postLoss := func(st *ladderState, wmax, ago float64) {
		st.wmax = wmax
		st.k = math.Cbrt(wmax * (1 - cubicBeta) / cubicC)
		st.ssth = math.Max(2, wmax*cubicBeta)
		st.epoch -= ago
		st.slow = false
	}
	cases := []struct {
		name  string
		state func(la *layer) (st ladderState, capMbps, sizeMb float64)
	}{
		{"slow start at bdpCap", func(la *layer) (ladderState, float64, float64) {
			capMbps := 2 + 800*u()
			st := ladderState{cwnd: bdpCapOf(la, capMbps), ssth: math.Inf(1), slow: true}
			return st, capMbps, 0.5 + 120*u()
		}},
		// Unreachable in a campaign (ssth stays +Inf until the first loss,
		// which clears slow), but it is the one state at the cap whose
		// window update is not a no-op: slow start reaching ssth ends.
		{"slow start at ssth", func(la *layer) (ladderState, float64, float64) {
			capMbps := 2 + 800*u()
			c := bdpCapOf(la, capMbps)
			st := ladderState{cwnd: c, ssth: math.Max(2, c*u()), slow: true}
			st.wmax = st.ssth / cubicBeta
			st.k = math.Cbrt(st.wmax * (1 - cubicBeta) / cubicC)
			return st, capMbps, 0.5 + 120*u()
		}},
		{"slow start below bdpCap", func(la *layer) (ladderState, float64, float64) {
			st := ladderState{cwnd: initCwndPkts, ssth: math.Inf(1), slow: true}
			return st, 1 + 1500*u(), 0.5 + 120*u()
		}},
		{"cwnd above a smaller bdpCap", func(la *layer) (ladderState, float64, float64) {
			capMbps := 1 + 300*u()
			st := ladderState{cwnd: bdpCapOf(la, capMbps) * (1 + 3*u()), ssth: math.Inf(1), slow: u() < 0.5}
			if !st.slow {
				postLoss(&st, st.cwnd*(0.5+u()), 10*u())
			}
			return st, capMbps, 0.5 + 120*u()
		}},
		{"window-capped", func(la *layer) (ladderState, float64, float64) {
			capMbps := wndCapPkts * mssMb / la.rttS * (1.5 + 4*u())
			st := ladderState{cwnd: wndCapPkts * (1 + 2*u()), ssth: math.Inf(1), slow: u() < 0.5}
			if u() < 0.5 {
				st.cwnd = bdpCapOf(la, capMbps)
			}
			if !st.slow {
				postLoss(&st, st.cwnd*(0.7+u()), 10*u())
			}
			return st, capMbps, 5 + 400*u()
		}},
		{"post-loss cubic", func(la *layer) (ladderState, float64, float64) {
			capMbps := 2 + 1000*u()
			st := ladderState{}
			postLoss(&st, 2+bdpCapOf(la, capMbps)*u(), 5*u())
			st.cwnd = math.Max(2, st.wmax*cubicBeta)
			if u() < 0.3 {
				st.cwnd = bdpCapOf(la, capMbps)
			}
			return st, capMbps, 0.5 + 120*u()
		}},
		{"maxRTTIters exit", func(la *layer) (ladderState, float64, float64) {
			capMbps := 0.3 + 2*u()
			st := ladderState{cwnd: 2 + 20*u(), ssth: math.Inf(1), slow: u() < 0.5}
			if u() < 0.5 {
				st.cwnd = math.Max(2, bdpCapOf(la, capMbps))
			}
			if !st.slow {
				postLoss(&st, st.cwnd, 10*u())
			}
			return st, capMbps, 50 + 400*u()
		}},
		{"outage floor", func(la *layer) (ladderState, float64, float64) {
			st := ladderState{cwnd: 2 + 5*u(), ssth: math.Inf(1), slow: u() < 0.5}
			if !st.slow {
				postLoss(&st, st.cwnd, 10*u())
			}
			capMbps := 0.0
			if u() < 0.5 {
				capMbps = outageFloorMbps * u()
			}
			return st, capMbps, 0.1 + 20*u()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for trial := 0; trial < 4000; trial++ {
				la := layers[trial%len(layers)]
				st, capMbps, sizeMb := c.state(la)
				start := 1000 * u()
				st.epoch += start - 2*u()
				st.rng = rngNext(&rng)
				checkLadder(t, la, st, capMbps, sizeMb, start)
			}
		})
	}
}

// FuzzDownloadMatchesWalk searches the ladder's input space for a state
// where the drain fast path and the full walk disagree. Each input is
// checked twice: with cwnd as given, and with cwnd placed exactly on the
// BDP cap, the drain's fixed point, which random floats would almost never
// hit. Inputs outside the kernel's domain are skipped: cwnd and ssth are at
// least 2 (ssth may be +Inf), capacity, size and times are finite, and
// size is positive. For a congestion-avoidance state, wmax and k are those
// a loss at ssth/beta leaves behind. The seed corpus in testdata/fuzz holds
// one named input per ladder regime plus inputs the fuzzer found.
func FuzzDownloadMatchesWalk(f *testing.F) {
	layers := ladderLayers(f)
	f.Fuzz(func(t *testing.T, cwnd float64, slow bool, ssth, capMbps, sizeMb float64, li uint8, start, epoch float64) {
		// within is false for NaN and for values beyond ±lim.
		within := func(x, lim float64) bool { return x >= -lim && x <= lim }
		if !within(cwnd, 1e7) || cwnd < 2 || math.IsNaN(ssth) || ssth < 2 ||
			!within(capMbps, 1e5) || capMbps < 0 || !within(sizeMb, 1e5) || sizeMb <= 0 ||
			!within(start, 1e7) || !within(epoch, 1e7) {
			t.Skip()
		}
		la := layers[int(li)%len(layers)]
		st := ladderState{cwnd: cwnd, ssth: ssth, epoch: epoch, slow: slow,
			rng: UESeed(int64(li), math.Float64bits(sizeMb))}
		if !slow && !math.IsInf(ssth, 1) {
			st.wmax = ssth / cubicBeta
			st.k = math.Cbrt(st.wmax * (1 - cubicBeta) / cubicC)
		}
		checkLadder(t, la, st, capMbps, sizeMb, start)
		if c := bdpCapOf(la, capMbps); c >= 2 {
			st.cwnd = c
			checkLadder(t, la, st, capMbps, sizeMb, start)
		}
	})
}
