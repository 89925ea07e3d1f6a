package kernel

import (
	"fmt"
	"sort"

	"babelfish/internal/memdefs"
	"babelfish/internal/pgtable"
	"babelfish/internal/rng"
)

// Seg identifies one of the address-space segments whose positions ASLR
// randomizes (Linux has 7: code, data, heap, stack, libraries, mmap area,
// and — in our container model — the runtime/middleware infra area).
type Seg int

const (
	SegText Seg = iota
	SegData
	SegHeap
	SegStack
	SegLibs
	SegMmap
	SegInfra
	NumSegs
)

func (s Seg) String() string {
	switch s {
	case SegText:
		return "text"
	case SegData:
		return "data"
	case SegHeap:
		return "heap"
	case SegStack:
		return "stack"
	case SegLibs:
		return "libs"
	case SegMmap:
		return "mmap"
	case SegInfra:
		return "infra"
	}
	return fmt.Sprintf("Seg(%d)", int(s))
}

// Segment windows: canonical base and span. ASLR offsets are 1GB-aligned
// within the low quarter of each window, so segment classification is a
// range check and huge-page alignment is preserved.
const (
	segSpan       = memdefs.VAddr(1) << 42 // 4TB per segment window
	aslrOffUnit   = memdefs.VAddr(1) << 30 // 1GB-aligned offsets
	aslrOffWindow = 64                     // offsets in [0, 64) GB
)

var segBases = [NumSegs]memdefs.VAddr{
	SegText:  0x0000_0400_0000_0000,
	SegData:  0x0000_0800_0000_0000,
	SegHeap:  0x0000_1000_0000_0000,
	SegStack: 0x0000_2000_0000_0000,
	SegLibs:  0x0000_3000_0000_0000,
	SegMmap:  0x0000_4000_0000_0000,
	SegInfra: 0x0000_5000_0000_0000,
}

// SegOf classifies a virtual address (canonical or offset by <1 window).
func SegOf(va memdefs.VAddr) (Seg, bool) {
	for s := SegText; s < NumSegs; s++ {
		if va >= segBases[s] && va < segBases[s]+segSpan {
			return s, true
		}
	}
	return 0, false
}

func aslrOffsets(seed uint64) [NumSegs]memdefs.VAddr {
	var out [NumSegs]memdefs.VAddr
	for s := SegText; s < NumSegs; s++ {
		h := rng.Mix(seed ^ uint64(s)*0x9e37)
		out[s] = memdefs.VAddr(h%aslrOffWindow) * aslrOffUnit
	}
	return out
}

// Region is a named, group-wide address range: every process of the group
// sees the same group-VA coordinates for it (its process VA differs only
// by the per-process ASLR offset under ASLR-HW).
//
// A chunked region (ChunkStarts non-nil) models mappings that real
// applications spread across the address space — per-extent/per-SST
// mmaps, arena allocations — so their page walks exercise many PMD/PUD
// entries instead of one compact range. Page index i lives in chunk
// i/ChunkPages at offset i%ChunkPages.
type Region struct {
	Name  string
	Seg   Seg
	Start memdefs.VAddr // group VA (first chunk's start when chunked)
	Pages int

	ChunkPages  int
	ChunkStarts []memdefs.VAddr
}

// End returns the exclusive group-VA end of the region's first (or only)
// extent.
func (r Region) End() memdefs.VAddr {
	n := r.Pages
	if r.ChunkPages > 0 && r.ChunkPages < n {
		n = r.ChunkPages
	}
	return r.Start + memdefs.VAddr(n)*memdefs.PageSize
}

// Chunked reports whether the region is split into spread chunks.
func (r Region) Chunked() bool { return len(r.ChunkStarts) > 0 }

// PageVA returns the group VA of the idx-th page of the region.
func (r Region) PageVA(idx int) memdefs.VAddr {
	if idx < 0 {
		idx = 0
	}
	if idx >= r.Pages {
		idx = r.Pages - 1
	}
	if !r.Chunked() {
		return r.Start + memdefs.VAddr(idx)*memdefs.PageSize
	}
	c := idx / r.ChunkPages
	if c >= len(r.ChunkStarts) {
		c = len(r.ChunkStarts) - 1
	}
	return r.ChunkStarts[c] + memdefs.VAddr(idx%r.ChunkPages)*memdefs.PageSize
}

// VMAKind distinguishes mapping types.
type VMAKind int

const (
	VMAFile VMAKind = iota
	VMAAnon
)

// VMA is one mapping in a process's address space, expressed in group VA.
// VMA structs are immutable after creation and may be shared between
// forked processes.
type VMA struct {
	Name    string
	Start   memdefs.VAddr // group VA, page aligned
	End     memdefs.VAddr // exclusive
	Perm    memdefs.Perm
	Kind    VMAKind
	File    *File
	FileOff int // in pages
	Private bool
	Seg     Seg
	Huge    bool // mapped with 2MB pages (THP or explicit)
}

// Pages returns the VMA length in 4KB pages.
func (v *VMA) Pages() int { return int((v.End - v.Start) / memdefs.PageSize) }

// Contains reports whether the group VA falls inside the VMA.
func (v *VMA) Contains(gva memdefs.VAddr) bool { return gva >= v.Start && gva < v.End }

// Process is one simulated process (one container runs one process, per
// Docker best practice cited in Section II-A).
type Process struct {
	PID   memdefs.PID
	PCID  memdefs.PCID
	CCID  memdefs.CCID
	Name  string
	Group *Group

	Tables *pgtable.Tables
	vmas   []*VMA
	// procOff are this process's per-segment ASLR offsets; under ASLR-SW
	// (and in the baseline) they equal the group's offsets.
	procOff [NumSegs]memdefs.VAddr

	kern *Kernel
	dead bool
}

// VMAs returns the process's mappings sorted by start address.
func (p *Process) VMAs() []*VMA { return p.vmas }

// FindVMA locates the mapping containing a group VA.
func (p *Process) FindVMA(gva memdefs.VAddr) (*VMA, bool) {
	i := sort.Search(len(p.vmas), func(i int) bool { return p.vmas[i].End > gva })
	if i < len(p.vmas) && p.vmas[i].Contains(gva) {
		return p.vmas[i], true
	}
	return nil, false
}

func (p *Process) insertVMA(v *VMA) error {
	i := sort.Search(len(p.vmas), func(i int) bool { return p.vmas[i].Start >= v.Start })
	for _, ex := range p.vmas {
		if v.Start < ex.End && ex.Start < v.End {
			return fmt.Errorf("kernel: overlapping VMA %q [%#x,%#x) vs %q [%#x,%#x) in pid %d",
				v.Name, v.Start, v.End, ex.Name, ex.Start, ex.End, p.PID)
		}
	}
	p.vmas = append(p.vmas, nil)
	copy(p.vmas[i+1:], p.vmas[i:])
	p.vmas[i] = v
	return nil
}

// ProcVA converts a group VA to this process's virtual address.
func (p *Process) ProcVA(gva memdefs.VAddr) memdefs.VAddr {
	seg, ok := SegOf(gva - 0) // group VA still lies in the canonical window
	if !ok {
		return gva
	}
	return gva - p.Group.groupOff[seg] + p.procOff[seg]
}

// GroupVA converts this process's virtual address to the group VA — the
// ASLR-HW diff_i_offset transform the MMU applies between L1 and L2 TLBs.
func (p *Process) GroupVA(pva memdefs.VAddr) memdefs.VAddr {
	seg, ok := SegOf(pva)
	if !ok {
		return pva
	}
	return pva - p.procOff[seg] + p.Group.groupOff[seg]
}

// SharedVAFunc returns the transform the MMU should apply (nil when the
// process layout already equals the group layout).
func (p *Process) SharedVAFunc() func(memdefs.VAddr) memdefs.VAddr {
	if p.procOff == p.Group.groupOff {
		return nil
	}
	return p.GroupVA
}

// PCBitFunc returns the MaskPage bit resolver for the MMU context.
func (p *Process) PCBitFunc() func(memdefs.VPN) (int, bool) {
	g := p.Group
	pid := p.PID
	return func(vpn memdefs.VPN) (int, bool) {
		mp, _ := g.maskPageFor(vpn, false) // lookup-only: cannot fail
		if mp == nil {
			return 0, false
		}
		return mp.bitOf(pid)
	}
}

// PCMaskFunc returns the MaskPage bitmask resolver for the MMU context.
func (p *Process) PCMaskFunc() func(memdefs.VPN) uint32 {
	g := p.Group
	return func(vpn memdefs.VPN) uint32 {
		mp, _ := g.maskPageFor(vpn, false) // lookup-only: cannot fail
		if mp == nil {
			return 0
		}
		return mp.maskForVPN(vpn)
	}
}

// MapFile maps a file region. private selects MAP_PRIVATE (writes break
// into CoW copies) versus MAP_SHARED (writes hit the page cache frame).
// Mapping beyond the file or over an existing VMA is a caller error.
func (p *Process) MapFile(r Region, f *File, fileOffPages int, perm memdefs.Perm, private bool, name string) (*VMA, error) {
	if fileOffPages < 0 || fileOffPages+r.Pages > f.Pages {
		return nil, fmt.Errorf("kernel: mapping %q beyond file %q (%d+%d > %d pages)",
			name, f.Name, fileOffPages, r.Pages, f.Pages)
	}
	v := &VMA{
		Name: name, Start: r.Start, End: r.End(), Perm: perm,
		Kind: VMAFile, File: f, FileOff: fileOffPages, Private: private, Seg: r.Seg,
	}
	if err := p.insertVMA(v); err != nil {
		return nil, err
	}
	return v, nil
}

// MustMapFile is MapFile for tests and static deploy scripts.
func (p *Process) MustMapFile(r Region, f *File, fileOffPages int, perm memdefs.Perm, private bool, name string) *VMA {
	v, err := p.MapFile(r, f, fileOffPages, perm, private, name)
	if err != nil {
		bug("MustMapFile: %v", err)
	}
	return v
}

// MapAnon maps an anonymous private region (heap, buffers, stacks). Huge
// mappings are used when THP is enabled and the region is large enough.
func (p *Process) MapAnon(r Region, perm memdefs.Perm, name string) (*VMA, error) {
	v := &VMA{
		Name: name, Start: r.Start, End: r.End(), Perm: perm,
		Kind: VMAAnon, Private: true, Seg: r.Seg,
		Huge: p.kern.Cfg.THP && r.Pages >= p.kern.Cfg.THPMinPages &&
			uint64(r.Start)%memdefs.HugePageSize2M == 0 && r.Pages%memdefs.TableSize == 0,
	}
	if err := p.insertVMA(v); err != nil {
		return nil, err
	}
	return v, nil
}

// MustMapAnon is MapAnon for tests and static deploy scripts.
func (p *Process) MustMapAnon(r Region, perm memdefs.Perm, name string) *VMA {
	v, err := p.MapAnon(r, perm, name)
	if err != nil {
		bug("MustMapAnon: %v", err)
	}
	return v
}

// ResidentPages counts the present leaf translations of the process
// (its VmRSS analogue; huge leaves count 512 pages).
func (p *Process) ResidentPages() int {
	n := 0
	p.Tables.VisitLeaves(func(gva memdefs.VAddr, lvl memdefs.Level, table memdefs.PPN, idx int, e pgtable.Entry) {
		if !e.Present() {
			return
		}
		if e.Huge() {
			n += memdefs.TableSize
		} else {
			n++
		}
	})
	return n
}

// Exit tears the process down: flushes its TLB and walk-cache state on
// every core, releases its page tables (shared sub-tables survive while
// other members reference them), and removes it from the group and
// kernel tables.
func (p *Process) Exit() {
	if p.dead {
		return
	}
	p.dead = true
	if p.kern.Hooks != nil {
		p.kern.Hooks.FlushProcess(p.PCID)
	}
	p.Tables.Release(func(e pgtable.Entry) {
		if e.Present() && e.PPN() != 0 {
			p.kern.Mem.Unref(e.PPN())
		}
	})
	p.Group.removeMember(p.PID)
	delete(p.kern.procs, p.PID)
}

// Dead reports whether the process has exited.
func (p *Process) Dead() bool { return p.dead }
