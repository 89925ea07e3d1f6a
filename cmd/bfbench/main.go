// Command bfbench regenerates the tables and figures of the BabelFish
// paper's evaluation (Section VII) on the simulator.
//
// Usage:
//
//	bfbench [-exp all|tableI|fig9|fig10a|fig10b|fig11|tableII|tableIII|largertlb|bringup|resources|archcompare|loadramp]
//	        [-arch NAME[,NAME...]|both] [-cores N] [-scale F] [-warm N] [-measure N] [-seed N]
//	        [-quick] [-format text|json|markdown] [-jobs N] [-core-shards N]
//	        [-trace-out FILE] [-flight-depth N]
//
// -exp archcompare runs the architecture head-to-head sweep: every
// workload measured under each requested translation policy (-arch, a
// comma-separated list of registered architecture names or both; empty
// sweeps them all). -exp loadramp sweeps a small fleet across open-loop
// offered-load levels per architecture (-arch again; empty means the
// baseline/BabelFish pair). Both are opt-in only — never part of
// -exp all or the json/markdown suite, whose output is pinned by the
// identity CI job.
//
// Each experiment prints rows shaped like the paper's; the headers quote
// the paper's numbers for comparison.
//
// -jobs N runs experiment cells on N workers (0 = GOMAXPROCS), and
// -core-shards N steps each machine's cores on up to N goroutines; the
// output is identical at any -jobs width and any -core-shards width >= 1.
//
// -trace-out FILE exports one span per executed experiment cell
// (architecture × app × config) after the run — Chrome trace-event JSON
// for Perfetto, or compact JSONL when FILE ends in .jsonl — showing how
// each experiment decomposed into its plan; -flight-depth N sizes the
// span ring.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"babelfish/internal/cli"
	"babelfish/internal/experiments"
	"babelfish/internal/obs"
	"babelfish/internal/xlatpolicy"
)

var cmd = cli.New("bfbench")

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (all, tableI, fig9, fig10a, fig10b, fig11, tableII, tableIII, largertlb, bringup, resources, sweeps, fig7, archcompare, loadramp)")
		archs   = flag.String("arch", "", "architectures for -exp archcompare or loadramp, comma-separated from "+xlatpolicy.UsageList("both")+" (empty = all registered / the baseline-babelfish pair)")
		cores   = flag.Int("cores", 0, "number of cores (0 = default 8)")
		scale   = flag.Float64("scale", 0, "dataset scale factor (0 = default 1.0)")
		warm    = flag.Uint64("warm", 0, "warm-up instructions per core (0 = default)")
		measure = flag.Uint64("measure", 0, "measured instructions per core (0 = default)")
		seed    = flag.Uint64("seed", 0, "random seed (0 = default)")
		quick   = flag.Bool("quick", false, "use the reduced smoke-test options")
		format  = flag.String("format", "text", "output format: text, json or markdown (json/markdown run all experiments)")
	)
	cmd.SimFlags("experiment cells")
	flag.Parse()
	cmd.CheckSimFlags(false)
	e := strings.ToLower(*exp)
	if !knownExp(e) {
		cmd.Usage("unknown experiment %q", *exp)
	}
	if *format != "text" && *format != "json" && *format != "markdown" {
		cmd.Usage("unknown format %q (want text, json or markdown)", *format)
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "arch" && e != "archcompare" && e != "loadramp" {
			cmd.Usage("-arch only applies to -exp archcompare or loadramp")
		}
	})
	var archList []string
	if *archs != "" {
		var err error
		if archList, err = xlatpolicy.ParseArchs(*archs); err != nil {
			cmd.Usage("%v", err)
		}
	}

	o := experiments.Default()
	if *quick {
		o = experiments.Quick()
	}
	if *cores > 0 {
		o.Cores = *cores
	}
	if *scale > 0 {
		o.Scale = *scale
	}
	if *warm > 0 {
		o.WarmInstr = *warm
	}
	if *measure > 0 {
		o.MeasureInstr = *measure
	}
	if *seed > 0 {
		o.Seed = *seed
	}
	o.Jobs = cmd.Jobs
	o.CoreShards = cmd.CoreShards
	var cellRec *obs.Recorder
	if cmd.TraceOut != "" {
		cellRec = obs.NewRecorder(o.Seed, obs.ControlScope, obs.Options{Depth: cmd.FlightDepth}.RingDepth())
		experiments.SetObsRecorder(cellRec)
	}
	if err := runFormat(*format, e, o, archList); err != nil {
		os.Exit(cmd.Fail(err))
	}
	if cellRec != nil {
		streams := []obs.Stream{{Name: "cells", Spans: cellRec.Spans()}}
		if err := obs.WriteTraceFile(cmd.TraceOut, "bfbench", streams); err != nil {
			os.Exit(cmd.Fail(err))
		}
		fmt.Fprintf(os.Stderr, "bfbench: trace (schema v%d, %d cells) written to %s\n",
			obs.TraceSchemaVersion, cellRec.Total(), cmd.TraceOut)
	}
}

// runFormat prints the json or markdown suite report, or else runs the
// -exp experiments as text.
func runFormat(format, exp string, o experiments.Options, archList []string) error {
	if format == "text" {
		return run(exp, o, archList)
	}
	rep, err := experiments.RunAll(o)
	if err != nil {
		return err
	}
	if format == "json" {
		return rep.WriteJSON(os.Stdout)
	}
	return rep.WriteMarkdown(os.Stdout)
}

// textSuite lists the text-mode experiments in print order: ids holds
// the lower-case -exp values that select each, and -exp all runs them
// all. The opt-in archcompare and loadramp sweeps are not part of it,
// nor of the json/markdown suite, whose output is pinned by the identity
// CI job: both run many machines (loadramp whole clusters) per cell.
var textSuite = []struct {
	ids string
	run func(o experiments.Options) (any, error)
}{
	{"tablei", func(o experiments.Options) (any, error) { return experiments.TableI(o), nil }},
	{"fig7", func(o experiments.Options) (any, error) { return experiments.Fig7(o) }},
	{"fig9", func(o experiments.Options) (any, error) { return experiments.Fig9(o) }},
	{"fig10 fig10a fig10b", func(o experiments.Options) (any, error) { return experiments.Fig10(o) }},
	{"fig11 tableii", func(o experiments.Options) (any, error) {
		r, err := experiments.Fig11(o)
		if err != nil {
			return nil, err
		}
		return fmt.Sprintf("%v\n%v", r, experiments.TableII(r)), nil
	}},
	{"tableiii", func(experiments.Options) (any, error) { return experiments.TableIII(), nil }},
	{"largertlb", func(o experiments.Options) (any, error) { return experiments.LargerTLB(o) }},
	{"bringup", func(o experiments.Options) (any, error) { return experiments.Bringup(o) }},
	{"resources", func(o experiments.Options) (any, error) { return experiments.Resources(o) }},
	{"sweeps", func(o experiments.Options) (any, error) { return experiments.SweepColocation(o, nil) }},
	{"sweeps", func(o experiments.Options) (any, error) { return experiments.SweepGroupSize(o, nil) }},
	{"sweeps", func(o experiments.Options) (any, error) { return experiments.Variants(o) }},
	{"sweeps", func(o experiments.Options) (any, error) { return experiments.SweepSMT(o) }},
	{"sweeps", func(o experiments.Options) (any, error) { return experiments.Churn(o, 4) }},
}

// selects reports whether the -exp value exp runs experiment ids.
func selects(exp, ids string) bool {
	return exp == "all" || slices.Contains(strings.Fields(ids), exp)
}

// knownExp reports whether exp names an experiment.
func knownExp(exp string) bool {
	if exp == "archcompare" || exp == "loadramp" {
		return true
	}
	for _, x := range textSuite {
		if selects(exp, x.ids) {
			return true
		}
	}
	return false
}

func run(exp string, o experiments.Options, archList []string) error {
	switch exp {
	case "archcompare":
		return show(experiments.ArchCompare(o, archList))
	case "loadramp":
		return show(experiments.LoadRamp(o, archList))
	}
	for _, x := range textSuite {
		if !selects(exp, x.ids) {
			continue
		}
		if err := show(x.run(o)); err != nil {
			return err
		}
	}
	return nil
}

// show prints a finished experiment's result.
func show(r any, err error) error {
	if err == nil {
		fmt.Println(r)
	}
	return err
}
