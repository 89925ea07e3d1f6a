// Command simbench is the simulator's benchmark: it runs one of four
// seeded workloads (serve, graph, coldstart, fleet) for a host-time
// budget, checks every repetition's simulated outputs, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer ledger) by name
// with their units. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
// Every repetition runs in a fresh child process of this binary, so
// process-wide caches (the R-MAT graph cache) and ru_maxrss never leak
// between repetitions. See README.md in this directory for the
// workloads, the metrics and what each should and should not move.
//
// Usage (from any directory of the checkout):
//
//	bash simbench/run.sh -workload serve -seed 1 -seconds 28 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// goldenPath holds the recorded digests, relative to the repository root.
const goldenPath = "simbench/golden.json"

// childTimeout bounds one child process; a run always ends well inside
// the benchmark's 180-second limit.
const childTimeout = 150 * time.Second

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve, graph, coldstart, fleet, or all of them in turn")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "host seconds to spend on repetitions")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics from untraced runs, 1 = per-layer ledger from a traced run")
	child := fs.Bool("child", false, "run one repetition in this process and print its result as JSON")
	traced := fs.Bool("traced", false, "with -child: install the layer probes and profile the measured phase")
	dir := fs.String("dir", filepath.Join(".bench_build", "simbench"), "directory for spans, profiles and run records")
	record := fs.Bool("record", false, "pin (or re-pin) this seed's digest in "+goldenPath)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws := workloadList
	if *name != "all" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "simbench: unknown workload %q (want serve, graph, coldstart, fleet or all)\n", *name)
			return 2
		}
		ws = []workload{w}
	}
	if *child {
		if len(ws) != 1 {
			fmt.Fprintln(os.Stderr, "simbench: -child runs one workload")
			return 2
		}
		return runChild(ws[0], *seed, *traced, *dir)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "simbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	if _, err := os.Stat(goldenPath); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: run from the repository root (%v)\n", err)
		return 2
	}
	status := 0
	for _, w := range ws {
		if code := runParent(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *dir, *record); code != 0 {
			status = code
		}
	}
	return status
}

// runParent spends the budget on fresh-process repetitions, checks their
// outputs and prints the metrics.
func runParent(w workload, seed uint64, budget time.Duration, trace bool, dir string, record bool) int {
	start := time.Now()
	var untraced, traced []*result
	var problems []string
	var attempted, failed int64

	// Launch repetitions until one more would overrun the budget, after
	// at least three. With -trace 1 untraced and traced repetitions
	// alternate, so both see the same host conditions.
	var last time.Duration
	for i := 0; i < 3 || time.Since(start)+last <= budget; i++ {
		tracedRun := trace && i%2 == 1
		t0 := time.Now()
		sub := filepath.Join(dir, "trace", fmt.Sprintf("%s-%d-%d", w.name, seed, i))
		res, err := spawnChild(w, seed, tracedRun, sub)
		last = time.Since(t0)
		switch {
		case err != nil:
			problems = append(problems, err.Error())
			attempted++
			failed++
		case tracedRun:
			traced = append(traced, res)
		default:
			untraced = append(untraced, res)
		}
	}

	// Every repetition of one seed must produce the same outputs, equal
	// to the digest pinned for that seed in golden.json if there is one
	// (unless this run re-pins it), with clean audits.
	var want, source string
	if !record {
		var err error
		if want, source, err = goldenDigest(w.name, seed); err != nil {
			problems = append(problems, err.Error())
		}
	}
	if want == "" && len(untraced) > 0 {
		want, source = untraced[0].Digest, "the first repetition"
	}
	for _, r := range append(append([]*result(nil), untraced...), traced...) {
		attempted += r.Attempted
		bad := r.Failed
		if r.Digest != want {
			kind := "untraced"
			if r.Traced {
				kind = "traced"
			}
			problems = append(problems, fmt.Sprintf("%s digest %s differs from %s (%s)", kind, r.Digest, want, source))
			bad = r.Attempted
		}
		for _, v := range r.Violations {
			problems = append(problems, v)
		}
		failed += bad
	}
	if record && len(problems) == 0 && want != "" {
		if err := pinDigest(w.name, seed, want); err != nil {
			problems = append(problems, err.Error())
		}
	}
	correct := len(problems) == 0 && len(untraced) > 0 && (!trace || len(traced) > 0)
	if attempted == 0 {
		attempted = 1
	}

	defs, metrics := endToEnd, map[string]float64{}
	switch {
	case trace:
		defs, metrics = perLayer, ledgerMetrics(untraced, traced)
	case len(untraced) > 0:
		metrics = endToEndMetrics(untraced)
	}

	host := currentHost()
	host.GOMAXPROCS = childProcs()
	fmt.Printf("simbench %s seed %d: %d untraced + %d traced repetitions in %.1f s; %d CPUs, GOMAXPROCS %d, %s %s/%s\n",
		w.name, seed, len(untraced), len(traced), time.Since(start).Seconds(),
		host.CPUs, host.GOMAXPROCS, host.GoVersion, host.OS, host.Arch)
	if len(untraced) > 0 {
		u := untraced[0]
		fmt.Printf("samples: %d steps x %d repetitions, %d requests, %d containers; digest %s\n",
			len(u.StepMS), len(untraced), u.ReqCount, u.Containers, u.Digest)
	}
	for _, p := range problems {
		fmt.Println("FAIL:", p)
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, attempted, failed, map[string]metricValue{}}
	for _, d := range defs {
		v := metrics[d.Name]
		fmt.Printf("  %-32s %14.6g %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if err := writeRunRecord(dir, w.name, seed, host, untraced, traced, out.Metrics, problems); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childProcs is the GOMAXPROCS every repetition runs with: the workloads
// use at most two threads.
func childProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// spawnChild runs one repetition in a fresh process.
func spawnChild(w workload, seed uint64, traced bool, dir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10), "-dir", dir}
	if traced {
		args = append(args, "-traced")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs()))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d repetition failed: %w", w.name, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d repetition printed no result: %w", w.name, seed, err)
	}
	return &res, nil
}

// stepMedians returns, for each measured step, its median wall time over
// the repetitions. Every repetition of a seed simulates the same steps,
// so the median per step discards a repetition's transient slowdowns
// (such as time the hypervisor steals from the guest) while keeping each
// step's own cost.
func stepMedians(rs []*result) []float64 {
	out := make([]float64, len(rs[0].StepMS))
	for s := range out {
		var xs []float64
		for _, r := range rs {
			if s < len(r.StepMS) {
				xs = append(xs, r.StepMS[s])
			}
		}
		out[s] = median(xs)
	}
	return out
}

// medianOf is the median of f over the repetitions.
func medianOf(rs []*result, f func(r *result) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// endToEndMetrics reduces untraced repetitions. Host times are wall-clock
// time from the per-step medians over repetitions; set-up and memory are
// medians over repetitions. Simulated statistics are the same in every
// repetition of a seed.
//
// Six host figures are independent: set-up, memory, total step time,
// step p50 and p90, and the bring-up time behind containers_per_s. The
// other names are aliases the contract needs on every workload:
// epoch_ms_p50 is wave_ms_p50, and epochs_per_s is the fixed step count
// over the total step time that host_ns_per_instr also divides.
func endToEndMetrics(rs []*result) map[string]float64 {
	steps := stepMedians(rs)
	stepS := sum(steps) / 1000
	setup := medianOf(rs, func(r *result) float64 { return r.SetupS })
	u := rs[0]
	bringUp := stepS
	if u.BringUpInSetup {
		bringUp = setup
	}
	p50 := percentile(steps, 50)
	return map[string]float64{
		"setup_s":           setup,
		"host_ns_per_instr": ratio(stepS*1e9, float64(u.Instrs)),
		"peak_rss_mib":      medianOf(rs, func(r *result) float64 { return r.PeakRSSMiB }),
		"containers_per_s":  ratio(float64(u.Containers), bringUp),
		"wave_ms_p50":       p50,
		"wave_ms_p90":       percentile(steps, 90),
		"epochs_per_s":      ratio(float64(len(steps)), stepS),
		"epoch_ms_p50":      p50,
		"sim_cpi":           u.SimCPI,
		"req_p50_cycles":    u.ReqP50,
		"req_p99_cycles":    u.ReqP99,
		"served_frac":       u.ServedFrac,
	}
}

// ledgerMetrics reduces traced repetitions to the per-layer ledger
// (medians over traced repetitions) and derives the tracing overhead
// against the untraced repetitions of the same run.
func ledgerMetrics(untraced, traced []*result) map[string]float64 {
	out := map[string]float64{}
	if len(traced) == 0 {
		return out
	}
	for _, d := range perLayer {
		xs := make([]float64, len(traced))
		for i, r := range traced {
			xs[i] = r.Layers[d.Name]
		}
		out[d.Name] = median(xs)
	}
	if len(untraced) > 0 {
		steps := stepMedians(untraced)
		out["epoch_ms_p99"] = percentile(steps, 99)
		out["sim.cpu_ns_per_instr"] = medianOf(untraced, func(r *result) float64 {
			return ratio(r.MeasureCPUS*1e9, float64(r.Instrs))
		})
		out["bench.trace_overhead_frac"] = sum(stepMedians(traced))/sum(steps) - 1
	}
	return out
}

// goldenDigest returns the digest pinned for (workload, seed) in
// golden.json, or "" when the seed is not pinned.
func goldenDigest(workload string, seed uint64) (digest, source string, err error) {
	g, err := loadGolden()
	if err != nil {
		return "", "", err
	}
	if d := g[workload][strconv.FormatUint(seed, 10)]; d != "" {
		return d, goldenPath, nil
	}
	return "", "", nil
}

// pinDigest writes a checked digest for (workload, seed) into golden.json.
func pinDigest(workload string, seed uint64, digest string) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	if g[workload] == nil {
		g[workload] = map[string]string{}
	}
	g[workload][strconv.FormatUint(seed, 10)] = digest
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}

// loadGolden reads golden.json: workload -> seed -> digest.
func loadGolden() (map[string]map[string]string, error) {
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	g := map[string]map[string]string{}
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

// writeRunRecord keeps the whole run — host, every repetition's result
// and the reported metrics — as JSON beside the traces.
func writeRunRecord(dir, workload string, seed uint64, host hostInfo, untraced, traced []*result, metrics map[string]metricValue, problems []string) error {
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return err
	}
	rec := struct {
		Workload    string                 `json:"workload"`
		Seed        uint64                 `json:"seed"`
		Host        hostInfo               `json:"host"`
		Repetitions []*result              `json:"repetitions"`
		Metrics     map[string]metricValue `json:"metrics"`
		Problems    []string               `json:"problems,omitempty"`
	}{workload, seed, host, append(untraced, traced...), metrics, problems}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-%d-%s.json", workload, seed, time.Now().UTC().Format("20060102T150405.000"))
	return os.WriteFile(filepath.Join(dir, "runs", name), b, 0o644)
}
