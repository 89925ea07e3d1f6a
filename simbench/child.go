package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// result is what one child process reports for one repetition of a
// workload. Host times cover the phase named; simulated statistics are
// deterministic in (workload, seed).
type result struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Traced     bool     `json:"traced"`
	Digest     string   `json:"digest"`
	Violations []string `json:"violations,omitempty"`
	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`

	// Host times are wall-clock time; MeasureCPUS is the measured phase's
	// process CPU time (all threads).
	SetupS      float64   `json:"setup_s"`
	MeasureS    float64   `json:"measure_s"`
	MeasureCPUS float64   `json:"measure_cpu_s"`
	StepMS      []float64 `json:"step_ms"`
	Instrs      uint64    `json:"instrs"`
	// Containers counts the containers brought up: in set-up when
	// BringUpInSetup (serve and graph), otherwise in the measured steps.
	Containers     int     `json:"containers"`
	BringUpInSetup bool    `json:"bringup_in_setup"`
	PeakRSSMiB     float64 `json:"peak_rss_mib"`

	SimCPI     float64 `json:"sim_cpi"`
	ReqP50     float64 `json:"req_p50"`
	ReqP99     float64 `json:"req_p99"`
	ReqCount   int     `json:"req_count"`
	ServedFrac float64 `json:"served_frac"`

	// Layers holds the per-layer ledger (traced runs only).
	Layers map[string]float64 `json:"layers,omitempty"`
	Host   hostInfo           `json:"host"`
}

// hostInfo records where a result was measured.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func currentHost() hostInfo {
	return hostInfo{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
}

// runChild runs one repetition of a workload in this process and prints
// its result as one JSON line. Traced runs also write their spans and a
// CPU profile of the measured phase under dir.
func runChild(w workload, seed uint64, traced bool, dir string) int {
	res := &result{Workload: w.name, Seed: seed, Traced: traced, Host: currentHost()}
	e := &runEnv{seed: seed, traced: traced, tr: newTracer(), res: res, digest: sha256.New()}
	if traced {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return childFail(err)
		}
		f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
		if err != nil {
			return childFail(err)
		}
		e.profile = f
		e.clockNS = clockCostNS()
	}
	err := w.run(e)
	if e.profile != nil {
		if cerr := e.profile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return childFail(fmt.Errorf("%s seed %d: %w", w.name, seed, err))
	}
	cycles, instrs := e.simTotals()
	if instrs > 0 {
		res.SimCPI = float64(cycles) / float64(instrs)
	}
	res.PeakRSSMiB = peakRSSMiB()
	if traced {
		res.Layers = ledger(e)
		shares, samples, err := profileShares(filepath.Join(dir, "cpu.pprof"))
		if err != nil {
			return childFail(err)
		}
		for layer, s := range shares {
			res.Layers["profile."+layer+"_share"] = s
		}
		res.Layers["profile.samples"] = float64(samples)
		if err := writeSpans(filepath.Join(dir, "spans.jsonl"), e.tr.allSpans()); err != nil {
			return childFail(err)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return childFail(err)
	}
	fmt.Println(string(out))
	return 0
}

func childFail(err error) int {
	fmt.Fprintln(os.Stderr, "simbench child:", err)
	return 1
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// peakRSSMiB is the process's peak resident set (ru_maxrss, KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is a snapshot of the Go runtime's GC and allocation
// counters.
type runtimeSample struct {
	gcCPU, totalCPU float64 // seconds
	allocBytes      uint64
	gcCycles        uint64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(), gcCycles: s[3].Value.Uint64(),
	}
}

// heapObjectsMiB is the live-plus-unswept heap object bytes right now.
func heapObjectsMiB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// clockCostNS measures the cost of one timed interval (two clock reads),
// the unit of the probes' overhead.
func clockCostNS() float64 {
	const n = 200_000
	t0 := time.Now()
	var sink time.Duration
	for i := 0; i < n; i++ {
		s := time.Now()
		sink += time.Since(s)
	}
	_ = sink
	return float64(time.Since(t0)) / n
}
