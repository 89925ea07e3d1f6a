package workloads

import (
	"testing"

	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/mmu"
	"babelfish/internal/rng"
	"babelfish/internal/sim"
)

// TestTranslationOracle is the simulator's core correctness invariant:
// whatever the TLBs, PWC and shared tables cache, Translate must always
// produce the same physical frame as a direct software walk of the
// process's page tables. It runs a randomized interleaving of reads,
// CoW-triggering writes, forks and shootdowns across a container group,
// on both architectures, and cross-checks every translation.
func TestTranslationOracle(t *testing.T) {
	type cfg struct {
		name  string
		mode  kernel.Mode
		level memdefs.Level
	}
	for _, c := range []cfg{
		{"Baseline", kernel.ModeBaseline, memdefs.LvlPTE},
		{"BabelFish-PTEshare", kernel.ModeBabelFish, memdefs.LvlPTE},
		{"BabelFish-PMDshare", kernel.ModeBabelFish, memdefs.LvlPMD},
	} {
		mode := c.mode
		t.Run(c.name, func(t *testing.T) {
			p := sim.DefaultParams(mode)
			p.Kernel.ShareLevel = c.level
			p.Cores = 2
			p.MemBytes = 512 << 20
			m := sim.New(p)
			k := m.Kernel
			g := k.NewGroup("oracle", 11)

			tmpl, err := k.CreateProcess(g, "tmpl")
			if err != nil {
				t.Fatal(err)
			}
			file := k.MustCreateFile("file", 96)
			rFile := g.MustRegion("file", kernel.SegMmap, 64)
			rData := g.MustRegion("data", kernel.SegData, 32)
			rHeap := g.MustRegion("heap", kernel.SegHeap, 64)
			tmpl.MustMapFile(rFile, file, 0, memdefs.PermRead|memdefs.PermUser, true, "file")
			tmpl.MustMapFile(rData, file, 64, memdefs.PermRead|memdefs.PermWrite|memdefs.PermUser, true, "data")
			tmpl.MustMapAnon(rHeap, memdefs.PermRead|memdefs.PermWrite|memdefs.PermUser, "heap")

			procs := []*kernel.Process{}
			ctxs := map[memdefs.PID]*mmu.Ctx{}
			addProc := func(pr *kernel.Process) {
				procs = append(procs, pr)
				ctxs[pr.PID] = &mmu.Ctx{
					PID: pr.PID, PCID: pr.PCID, CCID: pr.CCID,
					Tables:   pr.Tables,
					SharedVA: pr.SharedVAFunc(),
					PCBit:    pr.PCBitFunc(),
					PCMask:   pr.PCMaskFunc(),
				}
			}
			for i := 0; i < 3; i++ {
				c, _, err := k.Fork(tmpl, "c")
				if err != nil {
					t.Fatal(err)
				}
				addProc(c)
			}

			rnd := rng.New(777)
			regions := []kernel.Region{rFile, rData, rHeap}
			for step := 0; step < 8000; step++ {
				// Occasionally fork another container mid-stream.
				if step%1500 == 1499 && len(procs) < 8 {
					c, _, err := k.Fork(tmpl, "late")
					if err != nil {
						t.Fatal(err)
					}
					addProc(c)
				}
				// Occasionally retire a container (its TLB entries must
				// never leak into other processes' translations) and
				// replace it.
				if step%2100 == 2099 && len(procs) > 2 {
					victim := procs[rnd.Intn(len(procs))]
					victim.Exit()
					for _, c := range m.Cores {
						c.MMU.FlushPCID(victim.PCID)
					}
					nn := procs[:0]
					for _, pr := range procs {
						if pr.PID != victim.PID {
							nn = append(nn, pr)
						}
					}
					procs = nn
					delete(ctxs, victim.PID)
					c, _, err := k.Fork(tmpl, "replacement")
					if err != nil {
						t.Fatal(err)
					}
					addProc(c)
				}
				// Occasionally munmap + remap one container's heap.
				if step%1700 == 1699 {
					pr := procs[rnd.Intn(len(procs))]
					if v, ok := pr.FindVMA(rHeap.Start); ok {
						if _, err := pr.Unmap(v); err != nil {
							t.Fatal(err)
						}
						pr.MustMapAnon(rHeap, memdefs.PermRead|memdefs.PermWrite|memdefs.PermUser, "heap")
					}
				}
				// Occasionally mprotect a container's data segment down
				// and back up (forces divergence + entry rewrites).
				if step%1900 == 1899 {
					pr := procs[rnd.Intn(len(procs))]
					if v, ok := pr.FindVMA(rData.Start); ok {
						if _, err := pr.Protect(v, memdefs.PermRead|memdefs.PermUser); err != nil {
							t.Fatal(err)
						}
						v2, _ := pr.FindVMA(rData.Start)
						if _, err := pr.Protect(v2, memdefs.PermRead|memdefs.PermWrite|memdefs.PermUser); err != nil {
							t.Fatal(err)
						}
					}
				}
				pr := procs[rnd.Intn(len(procs))]
				ctx := ctxs[pr.PID]
				r := regions[rnd.Intn(len(regions))]
				gva := r.PageVA(rnd.Intn(r.Pages)) + memdefs.VAddr(rnd.Intn(64)*64)
				write := rnd.Bool(0.25)
				if r.Name == "file" {
					write = false
				}
				va := pr.ProcVA(gva)
				core := m.Cores[rnd.Intn(len(m.Cores))]

				ppn, _, _, err := core.MMU.Translate(ctx, va, write, memdefs.AccessData)
				if err != nil {
					t.Fatalf("step %d: translate pid %d gva %#x write=%v: %v", step, pr.PID, gva, write, err)
				}
				// Oracle: direct software walk, bypassing all caches.
				res := pr.Tables.Walk(gva)
				if !res.Complete {
					t.Fatalf("step %d: oracle walk incomplete after successful translate (gva %#x)", step, gva)
				}
				want := res.PPNFor(gva)
				if ppn != want {
					t.Fatalf("step %d: pid %d gva %#x write=%v: MMU says PPN %d, tables say %d (mode %v)",
						step, pr.PID, gva, write, ppn, want, mode)
				}
				// Writers must land on frames no other process maps for
				// a private VMA page — spot-check CoW isolation.
				if write && r.Name == "heap" {
					for _, other := range procs {
						if other.PID == pr.PID {
							continue
						}
						ores := other.Tables.Walk(gva)
						if ores.Complete && ores.Leaf.Writable() && ores.Leaf.PPN() == ppn {
							t.Fatalf("step %d: pids %d and %d share a writable private frame %d",
								step, pr.PID, other.PID, ppn)
						}
					}
				}
			}
		})
	}
}

// TestNoLeaks runs a full deployment lifecycle — deploy, run, exit all
// containers, drop files — and verifies physical memory returns to the
// small kernel-owned residue (no frame leaks through fork/CoW/shared
// tables/MaskPages).
func TestNoLeaks(t *testing.T) {
	for _, mode := range []kernel.Mode{kernel.ModeBaseline, kernel.ModeBabelFish} {
		p := sim.DefaultParams(mode)
		p.Cores = 2
		p.MemBytes = 512 << 20
		p.Quantum = 100_000
		m := sim.New(p)
		baseAllocated := m.Mem.Allocated() // zero page

		d, err := Deploy(m, MongoDB(), 0.2, 9)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if _, _, err := d.Spawn(j%2, uint64(j)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.PrefaultAll(); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(150_000); err != nil {
			t.Fatal(err)
		}
		for _, c := range d.Containers {
			c.Exit()
		}
		d.Template.Exit()
		for _, f := range []*kernel.File{d.Infra, d.Bin, d.Libs, d.Dataset} {
			f.Drop()
		}
		if got := m.Mem.Allocated(); got != baseAllocated {
			t.Errorf("[%v] %d frames leaked (allocated %d, base %d)",
				mode, got-baseAllocated, got, baseAllocated)
		}
	}
}

// TestOutOfMemoryIsGraceful: a machine too small for the deployment must
// surface errors, never panic or corrupt.
func TestOutOfMemoryIsGraceful(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panicked under memory pressure: %v", r)
		}
	}()
	p := sim.DefaultParams(kernel.ModeBabelFish)
	p.Cores = 1
	p.MemBytes = 24 << 20 // far too small for the deployment
	p.Quantum = 50_000
	m := sim.New(p)
	d, err := Deploy(m, MongoDB(), 0.5, 3)
	if err == nil {
		// Deploy may survive (lazy allocation); then running must fail
		// cleanly instead.
		if _, _, err := d.Spawn(0, 1); err == nil {
			if err := d.PrefaultAll(); err == nil {
				err = m.Run(200_000)
			}
			if err == nil {
				t.Skip("machine unexpectedly big enough")
			}
		}
	}
}
