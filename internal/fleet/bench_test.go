package fleet

import (
	"runtime"
	"strconv"
	"testing"
)

// BenchmarkFleetCampaign measures end-to-end campaign throughput in UEs/sec
// (admission through reduce), the headline number for the 100k-1M scale
// story. Shards=1 keeps the number comparable across machines; the identity
// tests guarantee sharding only divides the wall clock, never the work.
func BenchmarkFleetCampaign(b *testing.B) {
	const ues = 8192
	cfg := Config{Seed: 1, UEs: ues, Shards: 1, Mix: MixMixed}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ues)*float64(b.N)/b.Elapsed().Seconds(), "UEs/s")
}

// BenchmarkFleetStreamCampaign is BenchmarkFleetCampaign in stream mode:
// same simulated work, but campaign memory is O(shards) (histogram
// shadows, bounded sketches, ~512 sampled sessions) instead of an O(UEs)
// results slice. The bytes/UE metric prices the retained reduction state
// per simulated session.
func BenchmarkFleetStreamCampaign(b *testing.B) {
	const ues = 8192
	cfg := Config{Seed: 1, UEs: ues, Shards: 1, Mix: MixMixed, Stream: true}
	b.ReportAllocs()
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ues)*float64(b.N)/b.Elapsed().Seconds(), "UEs/s")
	retained := res.Stream.skTput.Len()*24*4 + len(res.Stream.sampled)*72 +
		4*(len(tputBounds)+len(qoeBounds)+len(energyBounds)+len(stallBounds))*8
	b.ReportMetric(float64(retained)/float64(ues), "retained_B/UE")
}

// benchShardCounts returns the shard counts the scaling benchmarks sweep:
// 1 (the serial baseline), 4, and GOMAXPROCS when it differs from both.
// Identity tests guarantee the output is the same at every count, so the
// sweep measures pure wall-clock scaling.
func benchShardCounts() []int {
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

// BenchmarkFleetCampaignShards is BenchmarkFleetCampaign swept over shard
// counts: same campaign, same bytes, divided across parallel
// shards. UEs/s across the sweep gives the parallel scaling efficiency
// of the campaign kernel.
func BenchmarkFleetCampaignShards(b *testing.B) {
	const ues = 8192
	for _, shards := range benchShardCounts() {
		b.Run("shards="+strconv.Itoa(shards), func(b *testing.B) {
			cfg := Config{Seed: 1, UEs: ues, Shards: shards, Mix: MixMixed}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ues)*float64(b.N)/b.Elapsed().Seconds(), "UEs/s")
		})
	}
}

// BenchmarkFleetStreamCampaignShards is the stream-mode shard sweep.
func BenchmarkFleetStreamCampaignShards(b *testing.B) {
	const ues = 8192
	for _, shards := range benchShardCounts() {
		b.Run("shards="+strconv.Itoa(shards), func(b *testing.B) {
			cfg := Config{Seed: 1, UEs: ues, Shards: shards, Mix: MixMixed, Stream: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ues)*float64(b.N)/b.Elapsed().Seconds(), "UEs/s")
		})
	}
}

// TestSessionZeroAlloc pins the kernel's allocation contract: once a shard
// is built, running its session loop over a preallocated results range
// allocates nothing — no closure, boxed value, or growing slice per UE or
// per chunk. Every mix runs, so the mmWave blockage path, the LTE fallback,
// and both cascade kinds are covered.
func TestSessionZeroAlloc(t *testing.T) {
	const ues = 256
	for _, mix := range AllMixes {
		cfg := Config{Seed: 1, UEs: ues, Mix: mix}.withDefaults()
		dep, err := newDeployment(mix)
		if err != nil {
			t.Fatal(err)
		}
		sh := newShard(cfg, dep, make([]UEResult, ues))
		if avg := testing.AllocsPerRun(20, func() { sh.run(0, ues) }); avg != 0 {
			t.Errorf("%v: session loop allocates %.3f objects per %d-UE run, want 0", mix, avg, ues)
		}
	}
}
