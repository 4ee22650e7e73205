package fleet_test

import (
	"bytes"
	"testing"

	"fivegsim/internal/fleet"
	"fivegsim/internal/obs"
)

// TestAdmissionTimeShardInvariance is the regression test for a partition
// dependence the seed-7 identity test happened not to hit: the admitter
// used to re-arm with relative delays (now + (at - now)), so a UE's
// admission instant drifted by an ulp depending on which arrivals preceded
// it in its shard, and a 1e-9 coalescing epsilon folded near-simultaneous
// arrivals together only when they shared a shard. Both showed up as
// last-ulp differences in trace at/dur fields at seed 1 with 7 or 8
// shards. Each session now starts at its exact arrival float on its own
// clock, so the trace must be byte-identical across seeds and shard counts.
func TestAdmissionTimeShardInvariance(t *testing.T) {
	trace := func(seed int64, shards int) string {
		o := obs.New()
		mustRun(t, fleet.Config{Seed: seed, UEs: 403, Shards: shards, WindowS: 60, Obs: o})
		var b bytes.Buffer
		if err := obs.WriteTraceJSON(&b, "fleet", o.Trace()); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, seed := range []int64{1, 2, 7} {
		want := trace(seed, 1)
		for _, shards := range []int{2, 5, 7, 8} {
			if got := trace(seed, shards); got != want {
				t.Errorf("seed=%d shards=%d trace diverges from serial run:\n%s",
					seed, shards, firstDiff(want, got))
			}
		}
	}
}
