// Command bffleet runs a deterministic multi-node cluster of simulated
// machines under seeded fault injection and prints a fleet report:
// recovery-action tallies, re-placement delay, node downtime and request
// latency quantiles, and the achieved container density — for one
// architecture or side-by-side for baseline and BabelFish.
//
// Usage:
//
//	bffleet [-nodes N] [-cores N] [-mem-mb N] [-app mongodb|arangodb|httpd|graphchi|fio]
//	        [-arch NAME[,NAME...]|both] [-scale F] [-containers N]
//	        [-epochs N] [-epoch-instr N] [-seed N]
//	        [-kill-nth N] [-kill-prob P] [-kill-seed N] [-kill-after N] [-kill-max N]
//	        [-part-nth N] [-part-prob P] [-part-seed N] [-part-after N] [-part-max N]
//	        [-part-len N] [-restart-after N] [-suspicion N]
//	        [-backoff-base N] [-backoff-cap N] [-retry-budget N]
//	        [-load-shape off|const|ramp|diurnal|flash|trace] [-load-rps F]
//	        [-load-peak F] [-load-trace FILE] [-queue-cap N] [-requeue-budget N]
//	        [-max-per-node N] [-min-free F] [-shed-free F] [-degrade-epochs N]
//	        [-jobs N] [-audit] [-events N] [-node-telemetry] [-core-shards N]
//	        [-trace-out FILE] [-series-out FILE] [-series-every N]
//	        [-flight-recorder DIR] [-flight-depth N]
//
// The -kill-* and -part-* flags arm per-node crash and partition
// injectors with the memory-system injector's policy shape: every Nth
// epoch pulse and/or with probability P per pulse, starting after the
// first -*-after pulses, capped at -*-max faults per node (0 =
// unlimited). Seeds are mixed and Nth phases staggered by node ID, so
// faults roll across the fleet instead of striking it in lockstep; the
// whole fault pattern is a pure function of the flags, so runs replay
// byte-identically.
//
// -load-shape attaches an open-loop offered-load stream: arrivals are a
// pure function of (shape, seed, epoch) and never slow down when the
// fleet degrades — service lag shows up as queueing delay and, past the
// -queue-cap bound, dropped requests, exactly like a production
// load generator. const offers -load-rps requests per epoch; ramp
// climbs linearly from -load-rps to -load-peak over the run; diurnal
// swings sinusoidally between them with the run as its period; flash
// holds -load-rps with a spike to -load-peak for epochs/8 epochs
// starting at epochs/3; trace replays an epoch,container,requests CSV
// (-load-trace). The report gains an offered/admitted/served/dropped
// line and a queue-delay histogram; output stays byte-identical at any
// -jobs or -core-shards width. -requeue-budget bounds how many times
// any one container may re-enter the placement queue before it is
// declared lost.
//
// -arch takes one registered architecture, a comma-separated list of
// them, or both (the baseline/babelfish pair); each runs its own fleet,
// side by side in the report.
//
// -audit runs the fleet invariant auditor after the run — no container
// lost or double-placed, every assigned container reachable, and every
// up node's kernel/physmem/TLB books balanced — and exits non-zero on
// any violation. -events N prints the last N audit-log events. -jobs
// bounds the worker pool stepping node machines (0 = GOMAXPROCS);
// output is identical at any width.
//
// -core-shards N steps each node machine's cores on up to N goroutines
// with a deterministic quantum barrier; the report is identical at any
// width >= 1.
//
// -trace-out FILE exports the run's causal spans (fleet request →
// placement → node epoch → quantum → fault) and fleet/machine trace
// events after the run: Chrome trace-event JSON for Perfetto by
// default, compact JSONL when FILE ends in .jsonl. With several -arch
// values the stream names are prefixed per architecture. -series-out FILE streams
// a per-epoch time series of the fleet registry while the run is live
// (Prometheus text when FILE ends in .prom, JSONL otherwise; single
// -arch only); -series-every N widens the sampling interval to every
// Nth epoch. -flight-recorder DIR arms post-mortem capture: on a
// condemnation, OOM-kill escalation or container loss the cluster
// dumps a bundle (trace.json, trace.jsonl, metrics.prom, audit.txt) of
// the spans retained in its bounded rings; -flight-depth N sizes those
// rings (default 4096 spans per node). All obs output is deterministic:
// the same flags replay byte-identical files at any -jobs width, and
// leaving them off leaves the simulation byte-identical to builds
// without them.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"babelfish/internal/cli"
	"babelfish/internal/fleet"
	"babelfish/internal/loadgen"
	"babelfish/internal/metrics"
	"babelfish/internal/obs"
	"babelfish/internal/sim"
	"babelfish/internal/telemetry"
	"babelfish/internal/workloads"
	"babelfish/internal/xlatpolicy"
)

var cmd = cli.New("bffleet")

func main() { os.Exit(run()) }

func run() int {
	var (
		cores       = flag.Int("cores", 2, "cores per node")
		memMB       = flag.Uint64("mem-mb", 256, "physical memory per node, MB")
		app         = flag.String("app", "mongodb", "workload: "+strings.Join(workloads.AppNames(), ", "))
		arch        = flag.String("arch", "both", "architectures, comma-separated: "+xlatpolicy.UsageList("both"))
		loadShape   = flag.String("load-shape", "off", "open-loop offered load: off, const, ramp, diurnal, flash or trace")
		loadRPS     = flag.Float64("load-rps", 8, "offered requests per epoch across the fleet (base rate of const, ramp, diurnal and flash)")
		loadPeak    = flag.Float64("load-peak", 0, "peak requests per epoch for ramp, diurnal and flash (0 = 4x -load-rps)")
		loadTraceF  = flag.String("load-trace", "", "replay an epoch,container,requests CSV as the arrival stream (with -load-shape trace)")
		audit       = flag.Bool("audit", false, "run the fleet invariant auditor after each run; exit non-zero on violations")
		eventsN     = flag.Int("events", 0, "print the last N audit-log events of each run")
		seriesOut   = flag.String("series-out", "", "stream a per-epoch time series of the fleet registry (.prom for Prometheus text, JSONL otherwise; single -arch only)")
		seriesEvery = flag.Int("series-every", 1, "sample the fleet registry every N epochs (with -series-out)")
	)
	// The remaining flags fill cfg directly; fleet.Config.Validate owns
	// the rules on its values.
	var cfg fleet.Config
	flag.IntVar(&cfg.Nodes, "nodes", 8, "cluster size")
	flag.Float64Var(&cfg.Scale, "scale", 0.25, "dataset scale factor")
	flag.IntVar(&cfg.Containers, "containers", 24, "containers the fleet must keep running")
	flag.IntVar(&cfg.Epochs, "epochs", 24, "control-loop epochs")
	flag.Uint64Var(&cfg.EpochInstr, "epoch-instr", 20_000, "per-core instruction budget per epoch")
	flag.Uint64Var(&cfg.Seed, "seed", 42, "random seed")

	flag.Uint64Var(&cfg.Crash.Nth, "kill-nth", 0, "crash a node on every Nth epoch pulse (0 = off; staggered by node ID)")
	flag.Float64Var(&cfg.Crash.Prob, "kill-prob", 0, "crash probability per node per epoch (0 = off)")
	flag.Uint64Var(&cfg.Crash.Seed, "kill-seed", 1, "crash-injector seed")
	flag.Uint64Var(&cfg.Crash.After, "kill-after", 0, "suppress crashes for the first N epochs")
	flag.Uint64Var(&cfg.Crash.MaxFaults, "kill-max", 0, "cap crashes per node (0 = unlimited)")

	flag.Uint64Var(&cfg.Partition.Nth, "part-nth", 0, "partition a node on every Nth epoch pulse (0 = off)")
	flag.Float64Var(&cfg.Partition.Prob, "part-prob", 0, "partition probability per node per epoch (0 = off)")
	flag.Uint64Var(&cfg.Partition.Seed, "part-seed", 1, "partition-injector seed")
	flag.Uint64Var(&cfg.Partition.After, "part-after", 0, "suppress partitions for the first N epochs")
	flag.Uint64Var(&cfg.Partition.MaxFaults, "part-max", 0, "cap partitions per node (0 = unlimited)")
	flag.IntVar(&cfg.PartitionEpochs, "part-len", 4, "partition duration, epochs")

	flag.IntVar(&cfg.RestartEpochs, "restart-after", 3, "epochs a crashed node stays down")
	flag.IntVar(&cfg.SuspicionEpochs, "suspicion", 2, "suspicion timeout: heartbeats missed before condemnation")
	flag.IntVar(&cfg.BackoffBase, "backoff-base", 1, "first re-placement retry delay, epochs")
	flag.IntVar(&cfg.BackoffCap, "backoff-cap", 8, "re-placement backoff cap, epochs")
	flag.IntVar(&cfg.RetryBudget, "retry-budget", 16, "placement attempts before a container is lost")

	flag.IntVar(&cfg.QueueCap, "queue-cap", 64, "per-container pending-request queue bound; admissions past it are dropped")
	flag.IntVar(&cfg.RequeueBudget, "requeue-budget", 64, "queue re-entries before a container is declared lost")

	flag.IntVar(&cfg.MaxPerNode, "max-per-node", 8, "per-node container cap")
	flag.Float64Var(&cfg.MinFreeFrac, "min-free", 0.04, "admission watermark: min free-frame fraction")
	flag.Float64Var(&cfg.ShedFrac, "shed-free", 0.02, "shed watermark: degrade and shed below this free fraction")
	flag.IntVar(&cfg.DegradeEpochs, "degrade-epochs", 2, "epochs a degraded node keeps admissions closed")

	flag.BoolVar(&cfg.NodeTelemetry, "node-telemetry", false, "enable per-node machine histograms (merged fleet-wide translation latency)")

	flag.StringVar(&cfg.Obs.FlightDir, "flight-recorder", "", "write post-mortem bundles to this directory on condemnation, OOM-kill escalation or container loss")
	cmd.SimFlags("the per-epoch node stepping")
	flag.Parse()
	cmd.CheckSimFlags(cfg.Obs.FlightDir != "")
	cfg.Jobs = cmd.Jobs
	cfg.Obs.Enabled, cfg.Obs.Depth = cmd.TraceOut != "", cmd.FlightDepth

	var ok bool
	if cfg.Spec, ok = workloads.AppByName(*app); !ok {
		cmd.Usage("unknown app %q (want %s)", *app, strings.Join(workloads.AppNames(), ", "))
	}
	names, err := xlatpolicy.ParseArchs(*arch)
	if err != nil {
		cmd.Usage("%v", err)
	}

	// Flag consistency: catch nonsense before spending minutes simulating.
	// These are the rules fleet.Config.Validate (below) cannot see.
	if *memMB < 8 {
		cmd.Usage("-mem-mb must be at least 8")
	}
	if *eventsN < 0 {
		cmd.Usage("-events must be non-negative")
	}
	if *seriesOut != "" {
		if len(names) > 1 {
			cmd.Usage("-series-out needs a single architecture (pick one -arch value, not both)")
		}
		if *seriesEvery < 1 {
			cmd.Usage("-series-every must be at least 1")
		}
	}
	switch *loadShape {
	case "off", "const", "ramp", "diurnal", "flash", "trace":
	default:
		cmd.Usage("unknown load shape %q (want off, const, ramp, diurnal, flash or trace)", *loadShape)
	}
	if *loadShape != "off" && *loadShape != "trace" {
		if *loadRPS <= 0 || math.IsNaN(*loadRPS) || math.IsInf(*loadRPS, 0) {
			cmd.Usage("-load-rps must be a positive number")
		}
		if *loadPeak < 0 || math.IsNaN(*loadPeak) || math.IsInf(*loadPeak, 0) {
			cmd.Usage("-load-peak must be a non-negative number (0 = 4x -load-rps)")
		}
	}
	if *loadShape == "trace" && *loadTraceF == "" {
		cmd.Usage("-load-shape trace requires -load-trace FILE")
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "kill-seed", "kill-after", "kill-max":
			if cfg.Crash.Nth == 0 && cfg.Crash.Prob == 0 {
				cmd.Usage("-%s has no effect without -kill-nth or -kill-prob", f.Name)
			}
		case "part-seed", "part-after", "part-max", "part-len":
			if cfg.Partition.Nth == 0 && cfg.Partition.Prob == 0 {
				cmd.Usage("-%s has no effect without -part-nth or -part-prob", f.Name)
			}
		case "series-every":
			if *seriesOut == "" {
				cmd.Usage("-series-every has no effect without -series-out")
			}
		case "load-rps":
			if *loadShape == "off" || *loadShape == "trace" {
				cmd.Usage("-load-rps has no effect with -load-shape %s", *loadShape)
			}
		case "load-peak":
			if *loadShape == "off" || *loadShape == "const" || *loadShape == "trace" {
				cmd.Usage("-load-peak has no effect with -load-shape %s", *loadShape)
			}
		case "load-trace":
			if *loadShape != "trace" {
				cmd.Usage("-load-trace has no effect without -load-shape trace")
			}
		case "queue-cap":
			if *loadShape == "off" {
				cmd.Usage("-queue-cap has no effect without -load-shape")
			}
		}
	})

	// The arrival source is built once and shared by every run of the
	// loop below: Split resets itself whenever a run rewinds to epoch 0
	// and a Trace is stateless, so -arch both replays the identical
	// arrival stream against both architectures.
	if *loadShape != "off" {
		peak := *loadPeak
		if peak == 0 {
			peak = 4 * *loadRPS
		}
		var shape loadgen.Shape
		switch *loadShape {
		case "const":
			shape = loadgen.Constant{RPS: *loadRPS}
		case "ramp":
			shape = loadgen.Ramp{Base: *loadRPS, Peak: peak, Epochs: cfg.Epochs}
		case "diurnal":
			shape = loadgen.Diurnal{Base: *loadRPS, Peak: peak, Period: cfg.Epochs}
		case "flash":
			start := cfg.Epochs / 3
			length := cfg.Epochs / 8
			if length < 1 {
				length = 1
			}
			shape = loadgen.Flash{Base: *loadRPS, Peak: peak, Start: start, Len: length}
		case "trace":
			tr, err := loadgen.LoadTrace(*loadTraceF)
			if err != nil {
				cmd.Usage("%v", err)
			}
			if mc := tr.MaxContainer(); mc >= cfg.Containers {
				cmd.Usage("-load-trace references container %d but the fleet has only %d (-containers)", mc, cfg.Containers)
			}
			cfg.Load = tr
		}
		if shape != nil {
			cfg.Load = loadgen.Split(shape, cfg.Containers, cfg.Seed)
		}
	}

	// withArch completes cfg for one architecture's fleet.
	withArch := func(name string) fleet.Config {
		p, err := sim.ParamsForArch(name)
		if err != nil {
			panic(err) // names are validated at flag parsing
		}
		p.Cores = *cores
		p.MemBytes = *memMB << 20
		p.CoreShards = cmd.CoreShards
		c := cfg
		c.Params = p
		if c.Obs.FlightDir != "" && len(names) > 1 {
			// Side-by-side runs get per-architecture bundle directories so
			// their deterministic labels (epoch + trigger) never collide.
			c.Obs.FlightDir = filepath.Join(c.Obs.FlightDir, name)
		}
		return c
	}
	// Validate once up front so a config mistake is a usage error, not a
	// mid-run failure.
	if err := withArch(names[0]).Validate(); err != nil {
		cmd.Usage("%v", err)
	}

	t := metrics.NewTable(
		fmt.Sprintf("fleet: %d nodes, %d containers, %s scale %.2f, %d epochs",
			cfg.Nodes, cfg.Containers, *app, cfg.Scale, cfg.Epochs),
		"arch", "density", "p50Lat", "p99Lat", "placements", "sheds", "refusals", "lost")
	auditFailed := false
	var traceStreams []obs.Stream
	for i, name := range names {
		cfg := withArch(name)
		c, err := fleet.New(cfg)
		if err != nil {
			return cmd.Fail(err)
		}
		var closeSeries func() error
		if *seriesOut != "" {
			closeSeries, err = telemetry.StreamFile(c.EnableSeries(uint64(*seriesEvery)), *seriesOut, "bffleet")
			if err != nil {
				return cmd.Fail(err)
			}
		}
		if err := c.Run(); err != nil {
			return cmd.Fail(err)
		}
		if closeSeries != nil {
			if err := closeSeries(); err != nil {
				return cmd.Fail(err)
			}
		}
		if cmd.TraceOut != "" {
			ss := c.ObsStreams()
			if len(names) > 1 {
				for j := range ss {
					ss[j].Name = names[i] + "/" + ss[j].Name
				}
			}
			traceStreams = append(traceStreams, ss...)
		}
		if cfg.Obs.FlightDir != "" && c.FlightBundles() > 0 {
			fmt.Printf("%s: %d flight-recorder bundle(s) written under %s\n",
				names[i], c.FlightBundles(), cfg.Obs.FlightDir)
		}
		fmt.Print(c.Report())
		if *eventsN > 0 {
			evs := c.Events()
			lo := len(evs) - *eventsN
			if lo < 0 {
				lo = 0
			}
			fmt.Printf("--- %s: last %d fleet events ---\n", names[i], len(evs)-lo)
			for _, e := range evs[lo:] {
				fmt.Println(e)
			}
		}
		if *audit {
			rep := c.Audit()
			fmt.Printf("%s %s\n", names[i], rep)
			if !rep.OK() {
				auditFailed = true
			}
		}
		val := func(name string) uint64 {
			v, _ := c.Registry().Value(name)
			return uint64(v)
		}
		reqLat, _ := c.Registry().Hist("fleet.req_latency")
		t.Row(names[i], c.Density(), reqLat.Quantile(0.50), reqLat.Quantile(0.99),
			val("fleet.placements"), val("fleet.sheds"), val("fleet.place_fails"), val("fleet.lost"))
		if i < len(names)-1 {
			fmt.Println()
		}
	}
	fmt.Println(t)
	if cmd.TraceOut != "" {
		if err := obs.WriteTraceFile(cmd.TraceOut, "bffleet", traceStreams); err != nil {
			return cmd.Fail(err)
		}
		fmt.Printf("trace (schema v%d) written to %s\n", obs.TraceSchemaVersion, cmd.TraceOut)
	}
	if auditFailed {
		return cmd.Fail(errors.New("audit found invariant violations"))
	}
	return 0
}
