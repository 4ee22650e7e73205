package experiments

import (
	"io"

	"fivegsim/internal/obs"
)

// WriteTrace encodes the battery's merged trace artifact: each result's
// records scoped by experiment id, concatenated in the order of results
// (id order from RunMany). Results without a collector contribute nothing.
// The bytes are identical for every worker count because collection is
// per experiment and results arrive ordered; the encoder picks the format
// (JSONL or colf, whose blocks span experiment boundaries). The caller
// flushes enc.
func WriteTrace(enc obs.TraceEncoder, results []Result) error {
	for _, r := range results {
		for _, rec := range r.Obs.Trace().Records() {
			if err := enc.Add(r.ID, rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteMetrics writes the battery's merged metrics artifact: one CSV header
// followed by each result's snapshot rows scoped by experiment id, in result
// order.
func WriteMetrics(w io.Writer, results []Result) error {
	if _, err := io.WriteString(w, obs.MetricsCSVHeader); err != nil {
		return err
	}
	for _, r := range results {
		if err := obs.WriteMetricsCSV(w, r.ID, r.Obs.Meter()); err != nil {
			return err
		}
	}
	return nil
}
