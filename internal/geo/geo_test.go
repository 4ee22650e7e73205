package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHaversineKnownDistances(t *testing.T) {
	cases := []struct {
		a, b    City
		wantKm  float64
		tolFrac float64
	}{
		{Minneapolis, Chicago, 570, 0.05},
		{Minneapolis, StPaul, 15, 0.3},
		{Minneapolis, SanFrancisco, 2540, 0.05},
		{NewYork, LosAngeles, 3940, 0.05},
	}
	for _, c := range cases {
		got := HaversineKm(c.a.Loc, c.b.Loc)
		if math.Abs(got-c.wantKm) > c.wantKm*c.tolFrac {
			t.Errorf("Haversine(%s,%s) = %.0f km, want ~%.0f", c.a, c.b, got, c.wantKm)
		}
	}
}

func TestHaversineProperties(t *testing.T) {
	// Symmetry and identity.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Point{rng.Float64()*160 - 80, rng.Float64()*360 - 180}
		b := Point{rng.Float64()*160 - 80, rng.Float64()*360 - 180}
		dab := HaversineKm(a, b)
		dba := HaversineKm(b, a)
		if math.Abs(dab-dba) > 1e-6 {
			return false
		}
		if HaversineKm(a, a) > 1e-6 {
			return false
		}
		// Bounded by half Earth's circumference.
		return dab >= 0 && dab <= math.Pi*EarthRadiusKm+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHaversineTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := func() Point { return Point{rng.Float64()*160 - 80, rng.Float64()*360 - 180} }
		a, b, c := p(), p(), p()
		return HaversineKm(a, c) <= HaversineKm(a, b)+HaversineKm(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCarrierRegistry(t *testing.T) {
	r := NewCarrierRegistry("Verizon")
	if len(r.Servers) < 30 {
		t.Fatalf("carrier registry has %d servers, want >= 30 (paper: ~48)", len(r.Servers))
	}
	for _, s := range r.Servers {
		if s.Kind != HostCarrier {
			t.Errorf("server %q kind = %v, want carrier", s.Name, s.Kind)
		}
		if s.CapMbps != 0 {
			t.Errorf("carrier server %q has port cap %v", s.Name, s.CapMbps)
		}
	}
	n, ok := r.Nearest(Minneapolis.Loc, HostCarrier)
	if !ok || n.City.Name != "Minneapolis" {
		t.Errorf("Nearest = %+v, want Minneapolis", n)
	}
}

func TestMinnesotaRegistry(t *testing.T) {
	r := NewMinnesotaRegistry("Verizon")
	if len(r.Servers) != 37 {
		t.Fatalf("MN registry has %d servers, want 37 (Fig. 24)", len(r.Servers))
	}
	if r.Servers[0].Kind != HostCarrier {
		t.Error("first MN server should be the carrier's own")
	}
	caps := map[float64]int{}
	for _, s := range r.Servers {
		if s.City.State != "MN" {
			t.Errorf("server %q not in MN", s.Name)
		}
		caps[s.CapMbps]++
	}
	if caps[0] != 1 {
		t.Errorf("uncapped servers = %d, want 1 (carrier only)", caps[0])
	}
	third := r.ByKind(HostThirdParty)
	if len(third) != 36 {
		t.Errorf("third-party count = %d, want 36", len(third))
	}
	if got := r.InState("MN"); len(got) != 37 {
		t.Errorf("InState(MN) = %d, want 37", len(got))
	}
}

func TestAzureRegions(t *testing.T) {
	if len(AzureRegions) != 8 {
		t.Fatalf("%d Azure regions, want 8", len(AzureRegions))
	}
	// The paper reports network-path distances, which can only exceed (or
	// roughly equal) the geodesic distance of the region's anchor city.
	for _, a := range AzureRegions {
		d := HaversineKm(Minneapolis.Loc, a.City.Loc)
		if a.DistanceKm < 0.9*d {
			t.Errorf("region %s: reported %.0f km below haversine %.0f km", a.Name, a.DistanceKm, d)
		}
	}
	// Regions are ordered by increasing distance as in Fig. 8.
	for i := 1; i < len(AzureRegions); i++ {
		if AzureRegions[i].DistanceKm < AzureRegions[i-1].DistanceKm {
			t.Error("Azure regions not ordered by distance")
		}
	}
}

func TestSortedByDistance(t *testing.T) {
	r := NewCarrierRegistry("T-Mobile")
	sorted := r.SortedByDistance(Minneapolis.Loc)
	for i := 1; i < len(sorted); i++ {
		if sorted[i].DistanceKm(Minneapolis.Loc) < sorted[i-1].DistanceKm(Minneapolis.Loc) {
			t.Fatal("SortedByDistance not sorted")
		}
	}
	if sorted[0].City.Name != "Minneapolis" {
		t.Errorf("closest server = %s, want Minneapolis", sorted[0].City.Name)
	}
}

func TestNearestMissingKind(t *testing.T) {
	r := NewCarrierRegistry("Verizon")
	if _, ok := r.Nearest(Minneapolis.Loc, HostCloud); ok {
		t.Error("Nearest found a cloud server in a carrier registry")
	}
}

func TestHostKindString(t *testing.T) {
	if HostCarrier.String() != "carrier" || HostThirdParty.String() != "third-party" ||
		HostCloud.String() != "cloud" {
		t.Error("HostKind strings wrong")
	}
	if HostKind(99).String() == "" {
		t.Error("unknown HostKind should still format")
	}
}
