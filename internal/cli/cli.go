// Package cli is the front end the cmd/ tools share: one diagnostic
// convention — a "<cmd>: message" line, then the usage text and exit
// status 2 for a flag mistake, or exit status 1 for a runtime error —
// and the flags the simulation commands declare with one meaning and
// one set of rules.
package cli

import (
	"flag"
	"fmt"
	"math"
	"os"
)

// Cmd is one command's front end. The exported fields hold the shared
// simulation flags once SimFlags has declared them and flag.Parse has
// run.
type Cmd struct {
	name string

	Jobs        int    // -jobs: parallel workers (0 = GOMAXPROCS)
	CoreShards  int    // -core-shards: sharded core-stepping width (0 = classic serial)
	TraceOut    string // -trace-out: span export file
	FlightDepth int    // -flight-depth: span-ring depth (0 = default)
}

// New returns the front end of the command called name.
func New(name string) *Cmd { return &Cmd{name: name} }

// Usage reports a flag mistake with the full usage text and exits with
// status 2, mirroring the flag package's own error convention.
func (c *Cmd) Usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, c.name+": "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// Fail reports a runtime error and returns exit status 1, for the
// caller to return so that its deferred cleanup still runs.
func (c *Cmd) Fail(err error) int {
	fmt.Fprintln(os.Stderr, c.name+":", err)
	return 1
}

// CheckScale rejects a -scale that is not a positive finite number.
func (c *Cmd) CheckScale(scale float64) {
	if !(scale > 0) || math.IsInf(scale, 1) {
		c.Usage("-scale must be a positive finite number")
	}
}

// SimFlags declares -jobs, -core-shards, -trace-out and -flight-depth.
// units names what the -jobs workers run.
func (c *Cmd) SimFlags(units string) {
	flag.IntVar(&c.Jobs, "jobs", 0, "run "+units+" on N parallel workers (default GOMAXPROCS, 1 = serial); output is identical at any width")
	flag.IntVar(&c.CoreShards, "core-shards", 0, "step each machine's cores on up to N goroutines with a deterministic quantum barrier (0 = classic serial); output is identical at any width >= 1")
	flag.StringVar(&c.TraceOut, "trace-out", "", "export the run's causal spans after it ends (Chrome trace JSON; .jsonl for compact JSONL)")
	flag.IntVar(&c.FlightDepth, "flight-depth", 0, "span-ring depth (0 = default)")
}

// CheckSimFlags enforces the rules of the SimFlags flags after
// flag.Parse. recorder reports whether a flight recorder retains spans,
// the other sink besides -trace-out that -flight-depth sizes.
func (c *Cmd) CheckSimFlags(recorder bool) {
	if c.CoreShards < 0 {
		c.Usage("-core-shards must be non-negative (0 = classic serial stepping)")
	}
	if c.FlightDepth < 0 {
		c.Usage("-flight-depth must be non-negative")
	}
	flag.Visit(func(f *flag.Flag) {
		switch {
		case f.Name == "jobs" && c.Jobs <= 0:
			c.Usage("-jobs must be positive (omit the flag for GOMAXPROCS)")
		case f.Name == "flight-depth" && c.TraceOut == "" && !recorder:
			sinks := "-trace-out"
			if flag.Lookup("flight-recorder") != nil {
				sinks += " or -flight-recorder"
			}
			c.Usage("-flight-depth has no effect without %s", sinks)
		}
	})
}
