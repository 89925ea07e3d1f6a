// Package ycsb implements the Yahoo! Cloud Serving Benchmark core
// workloads used to drive the paper's data-serving applications
// (Section VI: "each application is driven by the Yahoo Cloud Serving
// Benchmark with a 500MB dataset").
//
// It reproduces the YCSB core package's semantics: the six standard
// workload mixes (A-F), the request-distribution generators (zipfian,
// scrambled zipfian, latest, uniform), and the record-key to operation
// stream mapping. The data-serving generators in internal/workloads
// consume this stream and turn record operations into paged memory
// references.
package ycsb

import (
	"fmt"

	"babelfish/internal/rng"
)

// Op is one database operation kind.
type Op int

const (
	OpRead Op = iota
	OpUpdate
	OpInsert
	OpScan
	OpReadModifyWrite
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpScan:
		return "scan"
	case OpReadModifyWrite:
		return "rmw"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Mix is a workload's operation proportions (must sum to ~1).
type Mix struct {
	Read, Update, Insert, Scan, RMW float64
}

// Workload identifies a standard YCSB core workload.
type Workload byte

// The six core workloads.
const (
	WorkloadA Workload = 'A' // update heavy: 50/50 read/update
	WorkloadB Workload = 'B' // read mostly: 95/5 read/update
	WorkloadC Workload = 'C' // read only
	WorkloadD Workload = 'D' // read latest: 95/5 read/insert
	WorkloadE Workload = 'E' // short ranges: 95/5 scan/insert
	WorkloadF Workload = 'F' // read-modify-write: 50/50 read/RMW
)

// MixOf returns the standard proportions of a workload.
func MixOf(w Workload) (Mix, error) {
	switch w {
	case WorkloadA:
		return Mix{Read: 0.5, Update: 0.5}, nil
	case WorkloadB:
		return Mix{Read: 0.95, Update: 0.05}, nil
	case WorkloadC:
		return Mix{Read: 1.0}, nil
	case WorkloadD:
		return Mix{Read: 0.95, Insert: 0.05}, nil
	case WorkloadE:
		return Mix{Scan: 0.95, Insert: 0.05}, nil
	case WorkloadF:
		return Mix{Read: 0.5, RMW: 0.5}, nil
	}
	return Mix{}, fmt.Errorf("ycsb: unknown workload %q", string(w))
}

// DistKind selects the request distribution.
type DistKind int

const (
	// DistZipfian is the YCSB default (theta 0.99), hot keys anywhere.
	DistZipfian DistKind = iota
	// DistScrambledZipfian spreads the zipfian hot set over the keyspace
	// by hashing ranks (YCSB's default for A/B/C/F).
	DistScrambledZipfian
	// DistLatest favours recently inserted keys (workload D).
	DistLatest
	// DistUniform is uniform over the keyspace (workload E scans start
	// uniformly in YCSB's default configuration variant).
	DistUniform
)

// fnvHash64 scrambles ranks for the scrambled-zipfian distribution.
func fnvHash64(v uint64) uint64 {
	const (
		offset = 0xCBF29CE484222325
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// Request is one generated operation.
type Request struct {
	Op  Op
	Key int // record index in [0, Records)
	// ScanLen is the number of consecutive records for OpScan.
	ScanLen int
}

// Config parameterizes a generator.
type Config struct {
	Workload Workload
	Records  int
	Dist     DistKind // zero value picks the workload's default
	Theta    float64  // zipfian skew; 0 = YCSB default 0.99
	MaxScan  int      // maximum scan length (default 100)
	Seed     uint64
}

// Generator produces the request stream of one YCSB client.
type Generator struct {
	cfg     Config
	mix     Mix
	rng     *rng.RNG
	zipf    *rng.Zipf
	records int // grows with inserts
}

// New builds a generator; it validates the workload.
func New(cfg Config) (*Generator, error) {
	mix, err := MixOf(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Records < 1 {
		return nil, fmt.Errorf("ycsb: need at least 1 record")
	}
	if cfg.Theta == 0 {
		cfg.Theta = 0.99
	}
	if cfg.MaxScan == 0 {
		cfg.MaxScan = 100
	}
	if cfg.Dist == DistZipfian {
		// Pick the workload's default distribution when the caller left
		// the zero value: scrambled zipfian for A/B/C/F, latest for D,
		// uniform starts for E.
		switch cfg.Workload {
		case WorkloadD:
			cfg.Dist = DistLatest
		case WorkloadE:
			cfg.Dist = DistUniform
		default:
			cfg.Dist = DistScrambledZipfian
		}
	}
	r := rng.New(cfg.Seed)
	g := &Generator{
		cfg:     cfg,
		mix:     mix,
		rng:     r,
		zipf:    rng.NewZipf(r, cfg.Records, cfg.Theta),
		records: cfg.Records,
	}
	return g, nil
}

// Records returns the current record count (grows with inserts).
func (g *Generator) Records() int { return g.records }

// key draws a record index per the configured distribution.
func (g *Generator) key() int {
	switch g.cfg.Dist {
	case DistUniform:
		return g.rng.Intn(g.records)
	case DistLatest:
		// Hot keys are the most recent: rank 0 = newest record.
		rank := g.zipf.Next()
		k := g.records - 1 - rank
		if k < 0 {
			k = 0
		}
		return k
	case DistScrambledZipfian:
		rank := g.zipf.Next()
		return int(fnvHash64(uint64(rank)) % uint64(g.records))
	default: // plain zipfian
		return g.zipf.Next()
	}
}

// Next generates one request.
func (g *Generator) Next() Request {
	u := g.rng.Float64()
	m := g.mix
	switch {
	case u < m.Read:
		return Request{Op: OpRead, Key: g.key()}
	case u < m.Read+m.Update:
		return Request{Op: OpUpdate, Key: g.key()}
	case u < m.Read+m.Update+m.Insert:
		k := g.records
		g.records++ // inserts extend the keyspace (bounded growth)
		if g.records > g.cfg.Records*2 {
			g.records = g.cfg.Records * 2
			k = g.rng.Intn(g.records)
		}
		return Request{Op: OpInsert, Key: k}
	case u < m.Read+m.Update+m.Insert+m.Scan:
		l := 1 + g.rng.Intn(g.cfg.MaxScan)
		return Request{Op: OpScan, Key: g.key(), ScanLen: l}
	default:
		return Request{Op: OpReadModifyWrite, Key: g.key()}
	}
}
