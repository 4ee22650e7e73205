package experiments

import (
	"math"
	"strings"
	"testing"

	"fivegsim/internal/fleet"
)

// TestFleetTableNaNPanicsOnCaller: the rows are built on worker goroutines,
// but a NaN column still fails the caller the way a serial loop would — as a
// panic it can recover, naming the first bad column in table order.
func TestFleetTableNaNPanicsOnCaller(t *testing.T) {
	nan := math.NaN()
	rs := []*fleet.Result{
		{Cfg: fleet.Config{Mix: fleet.MixLowBand}, UEs: []fleet.UEResult{{MeanMbps: 1, QoE: 1, EnergyJ: nan}}},
		{Cfg: fleet.Config{Mix: fleet.MixMmWave}, UEs: []fleet.UEResult{{MeanMbps: nan}}},
	}
	defer func() {
		p := recover()
		msg, _ := p.(string)
		if !strings.Contains(msg, "fleet low-band energy J") {
			t.Fatalf("FleetTable panic = %v, want one naming the low-band energy column", p)
		}
	}()
	FleetTable(rs)
	t.Fatal("FleetTable accepted a NaN column")
}
