package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"strings"
)

// profileLayers are the buckets a CPU profile's flat samples are sorted
// into, named after the ledger's layers.
var profileLayers = []string{"workloads", "cache", "mmu", "kernel", "sim", "fleet", "runtime", "bench", "other"}

// layerOfPackage maps a module package (the last path element under
// babelfish/internal) onto its ledger layer.
var layerOfPackage = map[string]string{
	"workloads": "workloads", "ycsb": "workloads", "graph": "workloads", "faasfn": "workloads", "kvstore": "workloads",
	"cache": "cache", "dram": "cache", "memsys": "cache",
	"mmu": "mmu", "tlb": "mmu", "pwc": "mmu", "xlatpolicy": "mmu", "xcache": "mmu",
	"kernel": "kernel", "pgtable": "kernel", "physmem": "kernel", "container": "kernel", "faultinject": "kernel",
	"sim": "sim", "metrics": "sim", "telemetry": "sim", "trace": "sim", "obs": "sim", "memdefs": "sim",
	"fleet": "fleet", "loadgen": "fleet", "par": "fleet",
}

// layerOf buckets a profiled function name by its package.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "babelfish/internal/"):
		if l, ok := layerOfPackage[strings.TrimPrefix(pkg, "babelfish/internal/")]; ok {
			return l
		}
		return "other"
	case pkg == "main" || strings.HasPrefix(pkg, "babelfish/simbench"):
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// profileShares reads a runtime/pprof CPU profile and returns each
// layer's share of the flat samples, plus the sample count. A flat
// sample is charged to the innermost function of its leaf location.
func profileShares(path string) (map[string]float64, int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, 0, err
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		layer := "other"
		if fid, ok := p.locFunc[s.locs[0]]; ok {
			if name, ok := p.funcName[fid]; ok {
				layer = layerOf(name)
			}
		}
		counts[layer] += s.values[0]
		total += s.values[0]
	}
	shares := make(map[string]float64, len(profileLayers))
	for _, l := range profileLayers {
		shares[l] = ratio(float64(counts[l]), float64(total))
	}
	return shares, total, nil
}

// profile holds the parts of a pprof profile.proto the bucketing needs.
type profile struct {
	samples  []sample
	locFunc  map[uint64]uint64 // location ID -> innermost function ID
	funcName map[uint64]string // function ID -> name
}

type sample struct {
	locs   []uint64
	values []int64
}

// decodeProfile decodes the fields of a pprof Profile message used here:
// sample (2), location (4), function (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFunc: make(map[uint64]uint64), funcName: make(map[uint64]string)}
	var strs []string
	funcStr := make(map[uint64]uint64)
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(sub, func(n int, v uint64, sub []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, sub)
				case 2:
					for _, x := range appendPacked(nil, v, sub) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id, fn uint64
			err := eachField(sub, func(n int, v uint64, sub []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line: the first is the innermost inlined frame
					if fn == 0 {
						return eachField(sub, func(n int, v uint64, _ []byte) error {
							if n == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			p.locFunc[id] = fn
			return err
		case 5:
			var id, name uint64
			err := eachField(sub, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcStr[id] = name
			return err
		case 6:
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcStr {
		if si < uint64(len(strs)) {
			p.funcName[id] = strs[si]
		}
	}
	return p, nil
}

var errProto = errors.New("simbench: malformed profile")

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (sub).
func appendPacked(dst []uint64, v uint64, sub []byte) []uint64 {
	if sub == nil {
		return append(dst, v)
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst
}
