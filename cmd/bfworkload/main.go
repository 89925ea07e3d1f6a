// Command bfworkload inspects the access streams the workload generators
// produce, without running the timing simulation: per-region footprints,
// read/write/instruction mixes, page-level locality, and request sizes.
// Useful when calibrating generators or adding workloads.
//
// Usage:
//
//	bfworkload [-app mongodb|arangodb|httpd|graphchi|fio|faas] [-steps N]
//	           [-scale F] [-seed N] [-sparse]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"babelfish/internal/cli"
	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/metrics"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

var cmd = cli.New("bfworkload")

func main() {
	appNames := strings.Join(append(workloads.AppNames(), "faas"), ", ")
	var (
		app    = flag.String("app", "mongodb", "workload: "+appNames)
		steps  = flag.Int("steps", 200_000, "steps to sample")
		scale  = flag.Float64("scale", 0.5, "dataset scale")
		seed   = flag.Uint64("seed", 42, "seed")
		sparse = flag.Bool("sparse", false, "sparse FaaS input variant")
	)
	flag.Parse()
	spec, ok := workloads.AppByName(*app)
	if !ok && *app != "faas" {
		cmd.Usage("unknown app %q (want %s)", *app, appNames)
	}
	cmd.CheckScale(*scale)
	if *steps <= 0 {
		cmd.Usage("-steps must be positive")
	}

	p := sim.DefaultParams(kernel.ModeBaseline)
	p.Cores = 1
	p.MemBytes = 2 << 30
	m := sim.New(p)

	var gen sim.Generator
	var proc *kernel.Process
	if *app == "faas" {
		fg, err := workloads.DeployFaaS(m, *sparse, *scale, *seed)
		if err != nil {
			os.Exit(cmd.Fail(err))
		}
		task, _, err := fg.Spawn("parse", 0, *seed)
		if err != nil {
			os.Exit(cmd.Fail(err))
		}
		gen, proc = task.Gen, task.Proc
	} else {
		d, err := workloads.Deploy(m, spec, *scale, *seed)
		if err != nil {
			os.Exit(cmd.Fail(err))
		}
		task, _, err := d.Spawn(0, *seed)
		if err != nil {
			os.Exit(cmd.Fail(err))
		}
		gen, proc = task.Gen, task.Proc
	}

	type regionStat struct {
		name                  string
		reads, writes, instrs int
		pages                 map[memdefs.VPN]int
	}
	stats := map[string]*regionStat{}
	var s sim.Step
	var reqSteps, reqs, curReq int
	var totalThink int
	for i := 0; i < *steps; i++ {
		if !gen.Next(&s) {
			break
		}
		gva := proc.GroupVA(s.VA)
		vma, ok := proc.FindVMA(gva)
		name := "?"
		if ok {
			name = vma.Name
		}
		rs := stats[name]
		if rs == nil {
			rs = &regionStat{name: name, pages: map[memdefs.VPN]int{}}
			stats[name] = rs
		}
		switch {
		case s.Kind == memdefs.AccessInstr:
			rs.instrs++
		case s.Write:
			rs.writes++
		default:
			rs.reads++
		}
		rs.pages[memdefs.PageVPN(gva)]++
		totalThink += s.Think
		curReq++
		if s.Req == sim.ReqEnd {
			reqs++
			reqSteps += curReq
			curReq = 0
		}
	}

	var names []string
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	t := metrics.NewTable(fmt.Sprintf("%s access-stream sample (%d steps)", *app, *steps),
		"region", "reads", "writes", "ifetch", "distinct pages", "top-page share")
	for _, n := range names {
		rs := stats[n]
		max, total := 0, 0
		for _, c := range rs.pages {
			total += c
			if c > max {
				max = c
			}
		}
		t.Row(n, rs.reads, rs.writes, rs.instrs, len(rs.pages),
			fmt.Sprintf("%.1f%%", 100*float64(max)/float64(total)))
	}
	fmt.Println(t)
	if reqs > 0 {
		fmt.Printf("requests sampled: %d, mean steps/request: %.1f, mean think/step: %.1f instr\n",
			reqs, float64(reqSteps)/float64(reqs), float64(totalThink)/float64(*steps))
	}
}
