package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// procStats is what fgbench measures of a finished process from outside.
type procStats struct {
	SetupS  float64 // process start to ready
	MaxRSSB float64 // OS-reported peak resident set, bytes
	CPUS    float64 // user plus system CPU time
}

// rusageStats reads the peak RSS and CPU time of an exited process.
func rusageStats(ps *os.ProcessState) (rssB, cpuS float64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	// Linux reports ru_maxrss in KiB.
	return float64(ru.Maxrss) * 1024, tv(ru.Utime) + tv(ru.Stime)
}

// readyLine is what a worker prints once it has read its input, right
// before its first call into the library.
const readyLine = "ready"

// runWorker runs `fgbench worker <mode>` with input as JSON on standard
// input, reads its JSON report into report, and returns what was measured
// of the process from outside: start to ready, peak RSS and CPU time.
func runWorker(mode string, input any, report any) (procStats, error) {
	self, err := os.Executable()
	if err != nil {
		return procStats{}, err
	}
	in, err := json.Marshal(input)
	if err != nil {
		return procStats{}, err
	}
	cmd := exec.Command(self, "worker", mode)
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return procStats{}, err
	}
	out := bufio.NewReader(stdout)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return procStats{}, fmt.Errorf("starting worker %s: %w", mode, err)
	}
	ready, rerr := out.ReadString('\n')
	setup := time.Since(start)
	var line string
	if rerr == nil {
		line, rerr = out.ReadString('\n')
	}
	// Wait closes the pipe, so it comes after the reads.
	if err := cmd.Wait(); err != nil {
		return procStats{}, fmt.Errorf("worker %s: %w", mode, err)
	}
	if rerr != nil || strings.TrimSpace(ready) != readyLine {
		return procStats{}, fmt.Errorf("worker %s broke the protocol (first line %q): %v", mode, ready, rerr)
	}
	if err := json.Unmarshal([]byte(line), report); err != nil {
		return procStats{}, fmt.Errorf("worker %s: decoding report: %w", mode, err)
	}
	rss, cpu := rusageStats(cmd.ProcessState)
	return procStats{SetupS: setup.Seconds(), MaxRSSB: rss, CPUS: cpu}, nil
}

// setupProbes is the number of extra start-to-ready measurements a run makes
// besides its job processes, so setup_s is a median of several samples.
const setupProbes = 15

// probeSetup starts and finishes n probe workers, which stop as soon as they
// are ready, and returns their start-to-ready times.
func probeSetup(n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		var rep workerReport
		ps, err := runWorker("probe", struct{}{}, &rep)
		if err != nil {
			return nil, err
		}
		out = append(out, ps.SetupS)
	}
	return out, nil
}

// keepGoing reports whether to start another job: at least one job always
// runs, and jobs start until the run length has passed.
func keepGoing(start time.Time, seconds int, jobs int) bool {
	return jobs == 0 || time.Since(start) < time.Duration(seconds)*time.Second
}
