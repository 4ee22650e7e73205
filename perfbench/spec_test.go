package main

import "testing"

// TestSpecDeclaresTheWorkloads checks BENCHMARK.json against the workloads
// this program implements and the metric rules the tail and report rely on.
func TestSpecDeclaresTheWorkloads(t *testing.T) {
	sp, err := loadSpec("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, sp.EndToEnd...), sp.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, name := range []string{"setup_s", "wall_s", "peak_rss_mb", "hit_p50_ms", "miss_tail_ms", "ok_share"} {
		if !seen[name] {
			t.Errorf("end-to-end metric %s is not declared", name)
		}
	}
}
