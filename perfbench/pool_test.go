package main

import (
	"reflect"
	"testing"
)

func TestPoolAndScheduleArePureFunctionsOfTheSeed(t *testing.T) {
	p := serveMixParams(20)
	pool1, err := buildPool(7, p)
	if err != nil {
		t.Fatal(err)
	}
	pool2, err := buildPool(7, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pool1, pool2) {
		t.Fatal("same seed built different pools")
	}
	s1, s2 := buildSchedule(7, p, pool1), buildSchedule(7, p, pool2)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed built different schedules")
	}
	other, err := buildPool(8, p)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(pool1, other) || reflect.DeepEqual(s1, buildSchedule(8, p, other)) {
		t.Fatal("different seeds built the same inputs")
	}
}

func TestScheduleShape(t *testing.T) {
	p := serveMixParams(20)
	for seed := int64(1); seed <= 5; seed++ {
		pool, err := buildPool(seed, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(pool) != keysPerTemplate*len(templates) {
			t.Fatalf("seed %d: %d keys, want %d", seed, len(pool), keysPerTemplate*len(templates))
		}
		sched := buildSchedule(seed, p, pool)
		// Only repeat slots in the first MinGap can stay empty.
		if early := int(2 * p.RatePerS * p.MinGap.Seconds()); len(sched) > p.Requests || len(sched) < p.Requests-early {
			t.Fatalf("seed %d: %d requests, want %d less at most %d", seed, len(sched), p.Requests, early)
		}
		span := float64(p.Requests) / p.RatePerS
		seen := make(map[int]bool)
		firstAt := make(map[int]float64)
		repeatsPerTmpl := make(map[int]int)
		for i, rq := range sched {
			due := rq.Due.Seconds()
			if due < 0 || due > span || (i > 0 && rq.Due < sched[i-1].Due) {
				t.Fatalf("seed %d: request %d due at %v, outside [0, %v] or out of order", seed, i, rq.Due, span)
			}
			if rq.First == seen[rq.Entry] {
				t.Fatalf("seed %d: request %d First=%t but key seen=%t", seed, i, rq.First, seen[rq.Entry])
			}
			if rq.First {
				seen[rq.Entry] = true
				firstAt[rq.Entry] = due
				continue
			}
			repeatsPerTmpl[pool[rq.Entry].Template]++
			if due-firstAt[rq.Entry] < p.MinGap.Seconds() {
				t.Errorf("seed %d: repeat %d comes %.3fs after its key's first request", seed, i, due-firstAt[rq.Entry])
			}
		}
		if len(seen) != len(pool) {
			t.Fatalf("seed %d: %d keys requested, want all %d", seed, len(seen), len(pool))
		}
		// The fixed quota keeps each template's share of repeats equal.
		for tmpl := range templates {
			want := (len(sched) - len(pool)) / len(templates)
			if got := repeatsPerTmpl[tmpl]; got < want-2 || got > want+2 {
				t.Errorf("seed %d: template %s has %d repeats, want about %d", seed, templates[tmpl].name, got, want)
			}
		}
	}
}
