package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"
)

func TestCacheClass(t *testing.T) {
	for header, want := range map[string]string{"hit": "hit", "miss": "miss", "": "", "HIT": "", "stale": ""} {
		got, ok := cacheClass(header)
		if got != want || ok != (want != "") {
			t.Errorf("cacheClass(%q) = %q, %t; want %q, %t", header, got, ok, want, want != "")
		}
	}
}

func TestFailureKind(t *testing.T) {
	for _, tc := range []struct {
		status            int
		err               error
		complete, matches bool
		want              string
	}{
		{200, nil, true, true, ""},
		{429, nil, false, false, "rejected"},
		{503, nil, false, false, "rejected"},
		{504, nil, false, false, "timeout"},
		{500, nil, false, false, "error"},
		{400, nil, false, false, "error"},
		{200, nil, false, true, "truncated"},
		{200, nil, true, false, "mismatched"},
		{0, fmt.Errorf("post: %w", context.DeadlineExceeded), false, false, "timeout"},
		{0, errors.New("connection refused"), false, false, "error"},
	} {
		if got := failureKind(tc.status, tc.err, tc.complete, tc.matches); got != tc.want {
			t.Errorf("failureKind(%d, %v, %t, %t) = %q, want %q", tc.status, tc.err, tc.complete, tc.matches, got, tc.want)
		}
	}
}

func TestTallySplitsVerifiedRequestsByCacheHeader(t *testing.T) {
	ms := time.Millisecond
	outs := []outcome{
		{due: 0, end: 30 * ms, status: http.StatusOK, cache: "miss"},
		{due: 10 * ms, end: 12 * ms, status: http.StatusOK, cache: "hit"},
		{due: 20 * ms, end: 21 * ms, status: http.StatusOK, cache: "hit"},
		{due: 30 * ms, end: 31 * ms, status: http.StatusTooManyRequests, fail: "rejected"},
		{due: 40 * ms, end: 90 * ms, status: http.StatusOK, cache: "", fail: ""}, // no header: unclassified
	}
	r := newResult(false)
	hits, misses, fails := tally(r, outs)
	if len(hits) != 2 || hits[0] != 2 || hits[1] != 1 {
		t.Errorf("hit latencies = %v, want [2 1]", hits)
	}
	if len(misses) != 1 || misses[0] != 30 {
		t.Errorf("miss latencies = %v, want [30]", misses)
	}
	if r.attempted != 5 || r.failed != 2 || fails["rejected"] != 1 || fails["unclassified"] != 1 {
		t.Errorf("attempted %d failed %d fails %v; want 5, 2, one rejected and one unclassified", r.attempted, r.failed, fails)
	}
}

func TestCheckClientWaitFailsASaturatedPass(t *testing.T) {
	ms := time.Millisecond
	outs := make([]outcome, 40)
	for i := range outs {
		outs[i] = outcome{due: time.Duration(i) * 25 * ms, send: time.Duration(i)*25*ms + ms}
	}
	r := newResult(false)
	if w, _ := checkClientWait(r, outs); w != 1 || len(r.problems) != 0 {
		t.Fatalf("steady pass: wait tail %v ms, problems %v; want 1 ms and none", w, r.problems)
	}
	// A backlog that grows: each request waits 20 ms longer than the last.
	for i := range outs {
		outs[i].send = outs[i].due + time.Duration(i)*20*ms
	}
	if w, _ := checkClientWait(r, outs); w <= float64(waitLimit)/1e6 || len(r.problems) != 1 {
		t.Fatalf("saturated pass: wait tail %v ms, problems %v; want beyond %v and one problem", w, r.problems, waitLimit)
	}
}
