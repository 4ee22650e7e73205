package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile declares the workloads and metrics, at the repository root.
const benchmarkFile = "BENCHMARK.json"

// metricDef is one declared metric.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the benchmark itself reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from path. The end-to-end metrics are
// reported by every workload with --trace 0, the per-layer ones with
// --trace 1.
func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
