package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fivegsim/internal/serve"
	"fivegsim/internal/trace"
)

// okLimit is the serve-mix latency limit: a request counts toward ok_share
// only if its verified body was complete within okLimit of when it was due.
const okLimit = 2 * time.Second

// waitLimit bounds the client-side wait of a request, from when it was due
// to when a connection sent it. The offered rate is far below saturation,
// so the tail of that wait stays within a few generation times; a tail
// beyond waitLimit means the backlog grew and fails the run.
const waitLimit = 250 * time.Millisecond

// requestTimeout bounds one request; a request that exceeds it is a timeout.
const requestTimeout = 60 * time.Second

// fgservdPath is the daemon binary perfbench/run.sh builds from this tree.
var fgservdPath = filepath.Join(buildDir, "fgservd")

// reference is the offline artifact of one pool key.
type reference struct {
	hash  string
	genMs float64 // serve.RunScenario into memory
}

// references generates every pool key offline with serve.RunScenario and
// records its hash and generation time. It also returns the trace
// generations the keys cost a fresh cache.
func references(pool []poolEntry, tr *tracer, parent int) ([]reference, float64, error) {
	refs := make([]reference, len(pool))
	gens0 := trace.DefaultCache.Generations()
	var buf bytes.Buffer
	for i, e := range pool {
		sc, err := serve.ParseScenario(bytes.NewReader(e.Body))
		if err != nil {
			return nil, 0, fmt.Errorf("pool key %q: %w", e.Key, err)
		}
		buf.Reset()
		sp := tr.begin("serve.RunScenario."+templates[e.Template].kind, parent)
		start := time.Now()
		err = serve.RunScenario(context.Background(), sc, &buf)
		refs[i].genMs = float64(time.Since(start)) / 1e6
		tr.end(sp)
		if err != nil {
			return nil, 0, fmt.Errorf("pool key %q: %w", e.Key, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		refs[i].hash = hex.EncodeToString(sum[:])
	}
	return refs, float64(trace.DefaultCache.Generations() - gens0), nil
}

// bodiesDigest hashes the sorted (key, artifact hash) pairs of a pool.
func bodiesDigest(pool []poolEntry, refs []reference) string {
	lines := make([]string, len(pool))
	for i, e := range pool {
		lines[i] = e.Key + "\t" + refs[i].hash + "\n"
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "")))
	return hex.EncodeToString(sum[:])
}

// parseMicros times serve.ParseScenario plus CanonicalKey over the pool's
// request bodies and returns the median per call in microseconds.
func parseMicros(pool []poolEntry, tr *tracer, parent int) (float64, error) {
	const rounds = 20
	sp := tr.begin("serve.parse", parent)
	defer tr.end(sp)
	var per []float64
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for _, e := range pool {
			sc, err := serve.ParseScenario(bytes.NewReader(e.Body))
			if err != nil {
				return 0, err
			}
			if sc.CanonicalKey() != e.Key {
				return 0, fmt.Errorf("canonical key changed for %q", e.Key)
			}
		}
		per = append(per, float64(time.Since(start))/1e3/float64(len(pool)))
	}
	return median(per), nil
}

// daemon is a running fgservd process.
type daemon struct {
	cmd      *exec.Cmd
	url      string
	setupS   float64
	gcDone   chan struct{}
	gcCycles float64
	allocMB  float64 // approximated from the gctrace heap sizes
}

// gcLine matches a GODEBUG=gctrace=1 line: cycle number and the heap size
// at GC start, after GC, and live.
var gcLine = regexp.MustCompile(`^gc (\d+) @.* (\d+)->(\d+)->(\d+) MB`)

// startDaemon starts fgservd on a free loopback port and waits until
// /v1/healthz answers 200. setupS is the time from start to that answer.
func startDaemon(dir string, n int) (*daemon, error) {
	addrFile := filepath.Join(dir, fmt.Sprintf("fgservd-%d.addr", n))
	cmd := exec.Command(fgservdPath, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, gcDone: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting fgservd: %w", err)
	}
	go d.readGCTrace(stderr)
	fail := func(err error) (*daemon, error) {
		_ = cmd.Process.Kill()
		<-d.gcDone
		_ = cmd.Wait()
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{}, Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for deadline := start.Add(30 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			return fail(errors.New("fgservd did not become healthy within 30 s"))
		}
		if d.url == "" {
			data, err := os.ReadFile(addrFile)
			if err != nil || !bytes.HasSuffix(data, []byte("\n")) {
				continue
			}
			d.url = "http://" + strings.TrimSpace(string(data))
		}
		resp, err := hc.Get(d.url + "/v1/healthz")
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
	}
	d.setupS = time.Since(start).Seconds()
	return d, nil
}

// readGCTrace consumes the daemon's standard error, counting GC cycles and
// approximating the bytes allocated (heap at each GC start minus the live
// heap the previous GC left), and passes other lines through.
func (d *daemon) readGCTrace(r io.Reader) {
	defer close(d.gcDone)
	sc := bufio.NewScanner(r)
	prevLive := 0.0
	for sc.Scan() {
		m := gcLine.FindStringSubmatch(sc.Text())
		if m == nil {
			fmt.Fprintln(os.Stderr, "fgservd:", sc.Text())
			continue
		}
		n, _ := strconv.ParseFloat(m[1], 64)
		startMB, _ := strconv.ParseFloat(m[2], 64)
		liveMB, _ := strconv.ParseFloat(m[4], 64)
		d.gcCycles = n
		d.allocMB += max(0, startMB-prevLive)
		prevLive = liveMB
	}
}

// stop drains the daemon with SIGTERM and measures the exited process.
func (d *daemon) stop() (procStats, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return procStats{}, err
	}
	<-d.gcDone
	if err := d.cmd.Wait(); err != nil {
		return procStats{}, fmt.Errorf("fgservd exit: %w", err)
	}
	rss, cpu := rusageStats(d.cmd.ProcessState)
	return procStats{SetupS: d.setupS, MaxRSSB: rss, CPUS: cpu}, nil
}

// outcome is one sent request, its times as offsets from the load start.
type outcome struct {
	due, gen, send, ttfb, end time.Duration
	status                    int
	cache                     string // X-Fgserv-Cache
	fail                      string // "" when the body was verified
}

// latency is the time from when the request was due to its last byte.
func (o outcome) latency() time.Duration { return o.end - o.due }

// cacheClass maps the X-Fgserv-Cache header of a verified response to its
// latency class. A request that waited on another request's generation is
// answered from the completed cache entry and counts as a hit.
func cacheClass(header string) (string, bool) {
	switch header {
	case "hit", "miss":
		return header, true
	}
	return "", false
}

// failureKind classifies a response that was not verified; "" means it
// was. Back-pressure refusals, timeouts, truncated and mismatched bodies
// all fail the request.
func failureKind(status int, transportErr error, complete, matches bool) string {
	switch {
	case transportErr != nil:
		var ne net.Error
		if errors.Is(transportErr, context.DeadlineExceeded) || (errors.As(transportErr, &ne) && ne.Timeout()) {
			return "timeout"
		}
		return "error"
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		return "rejected"
	case status == http.StatusGatewayTimeout:
		return "timeout"
	case status != http.StatusOK:
		return "error"
	case !complete:
		return "truncated"
	case !matches:
		return "mismatched"
	}
	return ""
}

// runLoad sends the schedule open-loop against the daemon and verifies
// every body against the references. It uses nproc connections, the most
// the host's load may use; a request due while all of them are busy waits
// in the client, and that wait counts in its latency.
func runLoad(url string, pool []poolEntry, refs []reference, sched []request, tr *tracer, parent int) ([]outcome, time.Duration) {
	out := make([]outcome, len(sched))
	conns := runtime.NumCPU()
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	// Sized to the schedule so the generator never blocks while every
	// connection is busy: its lateness then measures only its timer.
	due := make(chan int, len(sched))
	load := tr.begin("bench.load", parent)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				out[i] = sendOne(client, url, pool[sched[i].Entry], refs[sched[i].Entry], out[i], start)
				tr.add("bench.client_wait", load, start.Add(out[i].gen), start.Add(out[i].send))
				tr.add("serve.request", load, start.Add(out[i].send), start.Add(out[i].end))
			}
		}()
	}
	for i, rq := range sched {
		if d := rq.Due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		out[i].due, out[i].gen = rq.Due, time.Since(start)
		due <- i
	}
	close(due)
	wg.Wait()
	wall := time.Since(start)
	tr.end(load)
	client.CloseIdleConnections()
	return out, wall
}

// sendOne posts one scenario, reads the whole body through a hash and
// verifies status, completeness, key and bytes.
func sendOne(client *http.Client, url string, e poolEntry, ref reference, o outcome, start time.Time) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/run", bytes.NewReader(e.Body))
	if err != nil {
		o.fail = "error"
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	o.send = time.Since(start)
	resp, err := client.Do(req)
	o.ttfb = time.Since(start)
	if err != nil {
		o.end = o.ttfb
		o.fail = failureKind(0, err, false, false)
		return o
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	o.cache = resp.Header.Get(serve.HeaderCache)
	h := sha256.New()
	n, err := io.Copy(h, resp.Body)
	o.end = time.Since(start)
	if err != nil && o.status == http.StatusOK {
		// A short body is a truncated artifact, whatever broke the stream.
		o.fail = failureKind(o.status, nil, false, false)
		return o
	}
	complete := resp.Trailer.Get(serve.TrailerComplete) == "1"
	if resp.ContentLength >= 0 {
		complete = n == resp.ContentLength
	}
	matches := hex.EncodeToString(h.Sum(nil)) == ref.hash && resp.Header.Get(serve.HeaderKey) == e.Key
	o.fail = failureKind(o.status, err, complete, matches)
	return o
}

// loadPass starts a fresh daemon, runs the schedule against it and stops it.
func loadPass(o options, n int, pool []poolEntry, refs []reference, sched []request, tr *tracer, parent int) ([]outcome, time.Duration, *daemon, procStats, error) {
	d, err := startDaemon(o.work, n)
	if err != nil {
		return nil, 0, nil, procStats{}, err
	}
	outs, wall := runLoad(d.url, pool, refs, sched, tr, parent)
	ps, err := d.stop()
	if err != nil {
		return nil, 0, nil, procStats{}, err
	}
	return outs, wall, d, ps, nil
}

// tally counts the failed requests by kind and returns the latencies from
// due, in ms, of the verified hits and misses.
func tally(r *result, outs []outcome) (hits, misses []float64, fails map[string]int) {
	fails = map[string]int{}
	for _, o := range outs {
		r.attempted++
		if o.fail != "" {
			r.failed++
			fails[o.fail]++
			continue
		}
		class, ok := cacheClass(o.cache)
		if !ok {
			r.failed++
			fails["unclassified"]++
			continue
		}
		ms := float64(o.latency()) / 1e6
		if class == "hit" {
			hits = append(hits, ms)
		} else {
			misses = append(misses, ms)
		}
	}
	for _, kind := range sortedKeys(fails) {
		r.problem("%d requests failed: %s", fails[kind], kind)
	}
	return hits, misses, fails
}

// checkClientWait fails the run when the tail of the client-side wait of
// an open-loop pass is beyond waitLimit, and returns that tail in ms.
func checkClientWait(r *result, outs []outcome) (ms, pct float64) {
	ms, pct = tail(clientWaits(outs))
	if ms > float64(waitLimit)/1e6 {
		r.problem("client wait p%.4g is %.1f ms, beyond the %v limit: the offered rate saturated the daemon", pct, ms, waitLimit)
	}
	return ms, pct
}

// clientWaits returns, in ms, how long each request waited in the client
// between when it was due and when it was sent.
func clientWaits(outs []outcome) []float64 {
	ms := make([]float64, len(outs))
	for i, o := range outs {
		ms[i] = float64(o.send-o.due) / 1e6
	}
	return ms
}

// runServe measures serve-mix: the seeded open-loop schedule against a
// fresh fgservd, every body checked against the offline artifact.
func runServe(o options, r *result) error {
	p := serveMixParams(o.seconds)
	pool, err := buildPool(o.seed, p)
	if err != nil {
		return err
	}
	sched := buildSchedule(o.seed, p, pool)
	root := r.tr.begin("bench.run", -1)
	defer r.tr.end(root)
	refSpan := r.tr.begin("bench.references", root)
	refs, gens, err := references(pool, r.tr, refSpan)
	r.tr.end(refSpan)
	if err != nil {
		return err
	}
	pinOK := checkPin(r, o.seed, "serve-mix/bodies", bodiesDigest(pool, refs))
	r.note("schedule: %d requests over %d keys at %.0f/s, ok limit %v", len(sched), len(pool), p.RatePerS, okLimit)
	// With a wrong reference no served body is verified: every request fails.
	defer func() {
		if !pinOK {
			r.failed = r.attempted
			r.set("ok_share", 0)
		}
	}()
	if o.trace {
		return runServeTraced(o, r, pool, refs, gens, sched, root)
	}

	var setups []float64
	for i := 0; i < setupProbes; i++ {
		d, err := startDaemon(o.work, i)
		if err != nil {
			return err
		}
		ps, err := d.stop()
		if err != nil {
			return err
		}
		setups = append(setups, ps.SetupS)
	}
	outs, wall, _, ps, err := loadPass(o, setupProbes, pool, refs, sched, nil, -1)
	if err != nil {
		return err
	}
	setups = append(setups, ps.SetupS)
	hits, misses, _ := tally(r, outs)
	checkClientWait(r, outs)
	ok := 0
	for _, oc := range outs {
		if oc.fail == "" && oc.latency() <= okLimit {
			ok++
		}
	}
	r.set("setup_s", setups...)
	r.set("wall_s", wall.Seconds())
	r.set("peak_rss_mb", ps.MaxRSSB/1e6)
	r.set("hit_p50_ms", hits...)
	setMissTail(r, misses, false)
	r.set("ok_share", float64(ok)/float64(len(outs)))
	return nil
}

// runServeTraced is the traced serve-mix run: offline generation and parse
// timings, then the schedule once untraced and once traced, each against a
// fresh daemon; the traced pass gives the per-layer request metrics. Last,
// the same requests closed-loop against a third daemon give the rate at
// which it saturates.
func runServeTraced(o options, r *result, pool []poolEntry, refs []reference, gens float64, sched []request, root int) error {
	parse, err := parseMicros(pool, r.tr, root)
	if err != nil {
		return err
	}
	r.values["serve.parse_us"] = parse
	r.values["trace.generations"] = gens
	byKind := map[string][]float64{}
	for i, e := range pool {
		byKind[templates[e.Template].kind] = append(byKind[templates[e.Template].kind], refs[i].genMs)
	}
	r.values["serve.generate_ms.battery"] = median(byKind["battery"])
	r.values["serve.generate_ms.fleet"] = median(byKind["fleet"])

	outs0, wall0, _, _, err := loadPass(o, 0, pool, refs, sched, nil, -1)
	if err != nil {
		return err
	}
	tally(r, outs0)
	checkClientWait(r, outs0)
	outs, wall1, d, ps, err := loadPass(o, 1, pool, refs, sched, r.tr, root)
	if err != nil {
		return err
	}
	hits, misses, fails := tally(r, outs)
	waitTail, waitPct := checkClientWait(r, outs)

	// The closed-loop rate: the same requests all due at once, so the
	// nproc connections send them back to back. The offered rate is a
	// stated fraction of it (offeredRate).
	burst := append([]request(nil), sched...)
	for i := range burst {
		burst[i].Due = 0
	}
	outsB, wallB, _, _, err := loadPass(o, 2, pool, refs, burst, nil, -1)
	if err != nil {
		return err
	}
	tally(r, outsB)
	closedRate := float64(len(burst)) / wallB.Seconds()
	hitTail, hitPct := tail(hits)
	var overhead, ttfb, hitSvc, late []float64
	hitsN, okN := 0, 0
	for i, oc := range outs {
		late = append(late, float64(oc.gen-oc.due)/1e6)
		if oc.fail != "" {
			continue
		}
		okN++
		svc := float64(oc.end-oc.send) / 1e6
		if oc.cache == "hit" {
			hitsN++
			hitSvc = append(hitSvc, svc)
			continue
		}
		ttfb = append(ttfb, float64(oc.ttfb-oc.send)/1e6)
		overhead = append(overhead, svc-refs[sched[i].Entry].genMs)
	}
	lateTail, latePct := tail(late)
	r.values["serve.miss_overhead_ms"] = median(overhead)
	r.values["serve.ttfb_ms"] = median(ttfb)
	r.values["serve.hit_service_ms"] = median(hitSvc)
	r.values["serve.hit_tail_ms"] = hitTail
	r.values["serve.miss_p50_ms"] = median(misses)
	r.values["serve.hit_share"] = float64(hitsN) / float64(max(1, okN))
	r.values["serve.rejected"] = float64(fails["rejected"])
	r.values["serve.timeouts"] = float64(fails["timeout"])
	r.values["serve.truncated"] = float64(fails["truncated"])
	r.values["serve.mismatched"] = float64(fails["mismatched"])
	r.values["serve.gen_late_ms"] = lateTail
	r.values["serve.client_wait_ms"] = waitTail
	r.values["serve.closed_loop_rps"] = closedRate
	r.values["serve.offered_share"] = offeredRate / closedRate
	r.values["proc.cpu_s"] = ps.CPUS
	r.values["proc.alloc_mb"] = d.allocMB
	r.values["proc.gc_cycles"] = d.gcCycles
	r.values["bench.trace_overhead_s"] = wall1.Seconds() - wall0.Seconds()
	r.note("serve.hit_tail_ms is p%.4g of %d hits; serve.gen_late_ms is p%.4g and serve.client_wait_ms p%.4g of %d sends",
		hitPct, len(hits), latePct, waitPct, len(late))
	r.note("proc.alloc_mb is approximated from the daemon's gctrace")
	r.note("untraced load pass %.3f s, traced load pass %.3f s, closed-loop pass %.3f s", wall0.Seconds(), wall1.Seconds(), wallB.Seconds())
	return nil
}
