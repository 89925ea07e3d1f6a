package rng

import (
	"os/exec"
	"strings"
	"testing"
)

// The literals below were captured from the per-package copies these
// functions replaced. Every simulated result downstream depends on these
// bits, so a change here must fail loudly rather than drift.

func TestMixPinned(t *testing.T) {
	want := [16]uint64{
		0xe220a8397b1dcdaf, 0x910a2dec89025cc1, 0x975835de1c9756ce, 0x1d0b14e4db018fed,
		0x6e73e372e2338aca, 0x63033b0ca389c35a, 0xbd64a5d9adefe000, 0x63cbe1e459320dd7,
		0x9e5651b0ef953636, 0xaeaf52febe706064, 0x088712be8a582fca, 0x50f5647d2380309d,
		0x943ff9fc99de8f03, 0xc4ca37b7f8ad8aff, 0x6aa9d61435dbe63e, 0x875b9307abf55005,
	}
	for i, w := range want {
		if got := Mix(uint64(i)); got != w {
			t.Errorf("Mix(%d) = %#016x, want %#016x", i, got, w)
		}
	}
}

func TestFinalizePinned(t *testing.T) {
	want := [16]uint64{
		0x0000000000000000, 0x5692161d100b05e5, 0xdbd238973a2b148a, 0x1e535eede31428f0,
		0xb7a4712c74562914, 0xb6bf613dbebb45dc, 0xd17707977078336c, 0x12ae30237b17df14,
		0xd56b1fbb9ceba9e8, 0x826c6abf7fdd5ad7, 0x075c8519a9320579, 0x3462d848f53abb6d,
		0x37be58e8d7213bbc, 0xdcfa9555b5f881d1, 0x255c6046f62fbe29, 0x0392754934ea1539,
	}
	for i, w := range want {
		if got := Finalize(uint64(i)); got != w {
			t.Errorf("Finalize(%d) = %#016x, want %#016x", i, got, w)
		}
	}
}

// TestHashUnitPinned pins the 53-bit uniform the fault coin flips draw
// from the hash of Seed^seq.
func TestHashUnitPinned(t *testing.T) {
	want := [16]float64{
		0x1.c4415072f63b9p-01, 0x1.22145bd91204bp-01, 0x1.2eb06bbc392eap-01, 0x1.d0b14e4db0188p-04,
		0x1.b9cf8dcb88ce2p-02, 0x1.8c0cec328e27p-02, 0x1.7ac94bb35bdfcp-01, 0x1.8f2f879164c82p-02,
		0x1.3caca361df2a6p-01, 0x1.5d5ea5fd7ce0cp-01, 0x1.10e257d14b05p-05, 0x1.43d591f48e00cp-02,
		0x1.287ff3f933bd1p-01, 0x1.89946f6ff15b1p-01, 0x1.aaa75850d76f8p-02, 0x1.0eb7260f57eaap-01,
	}
	for i, w := range want {
		if got := unit(Mix(uint64(i))); got != w {
			t.Errorf("unit(Mix(%d)) = %x, want %x", i, got, w)
		}
	}
}

func TestStreamPinned(t *testing.T) {
	const seed = 0x5eed
	wantU := [16]uint64{
		0x09f1fd9d03f0a9b4, 0x553274161bbf8475, 0x5d5bca4696b343b3, 0x70d29b6c7d22528d,
		0x0bf2b716f9915475, 0x5eb7f92b95387cca, 0x296cd0f2c21d7f90, 0x1289a69805c125b1,
		0xdaa27fb8dacb9e73, 0x3ed08d59cb3f4727, 0x58a5f17b6c15c659, 0x651ac042fa7b481a,
		0x22af6aeaa88e8dcc, 0x2d2bae64640abfb9, 0xad0e83a710231b07, 0x9d30ff2169d91f12,
	}
	r := New(seed)
	for i, w := range wantU {
		if got := r.Uint64(); got != w {
			t.Errorf("Uint64 #%d = %#016x, want %#016x", i, got, w)
		}
	}
	wantI := [16]int{52, 5, 891, 197, 693, 130, 368, 705, 795, 71, 393, 506, 844, 993, 335, 34}
	r = New(seed)
	for i, w := range wantI {
		if got := r.Intn(1000); got != w {
			t.Errorf("Intn #%d = %d, want %d", i, got, w)
		}
	}
	wantF := [16]float64{
		0x1.3e3fb3a07e15p-05, 0x1.54c9d0586efep-02, 0x1.756f291a5acdp-02, 0x1.c34a6db1f4894p-02,
		0x1.7e56e2df322ap-05, 0x1.7adfe4ae54e1ep-02, 0x1.4b66879610ebcp-03, 0x1.289a69805c12p-04,
		0x1.b544ff71b5973p-01, 0x1.f6846ace59fap-03, 0x1.6297c5edb057p-02, 0x1.946b010be9ed2p-02,
		0x1.157b575544744p-03, 0x1.695d73232055cp-03, 0x1.5a1d074e20463p-01, 0x1.3a61fe42d3b23p-01,
	}
	r = New(seed)
	for i, w := range wantF {
		if got := r.Float64(); got != w {
			t.Errorf("Float64 #%d = %x, want %x", i, got, w)
		}
	}
	if New(seed).Intn(0) != 0 || New(seed).Intn(-3) != 0 {
		t.Error("Intn(n <= 0) must be 0")
	}
}

func TestZipfPinned(t *testing.T) {
	cases := []struct {
		n     int
		theta float64
		want  [16]int
	}{
		{65536, 0.99, [16]int{3428, 3, 13, 30, 0, 14719, 6, 6782, 29, 815, 5, 184, 235, 254, 1409, 5}},
		{4096, 0.95, [16]int{554, 2, 8, 16, 0, 1514, 4, 891, 15, 198, 4, 65, 78, 83, 294, 3}},
		{1000, 0.75, [16]int{365, 5, 20, 36, 0, 617, 11, 471, 34, 203, 9, 100, 114, 118, 256, 9}},
	}
	for _, c := range cases {
		z := NewZipf(New(42), c.n, c.theta)
		for i, w := range c.want {
			if got := z.Next(); got != w {
				t.Errorf("Zipf(%d, %v) draw #%d = %d, want %d", c.n, c.theta, i, got, w)
			}
		}
	}
}

// TestZipfLongRunPinned digests a million draws per case, so a change
// that only moves the rarer draws, such as those near the rank-1
// boundary, still fails.
func TestZipfLongRunPinned(t *testing.T) {
	cases := []struct {
		n      int
		theta  float64
		sum    uint64
		ones   int
		digest uint64
	}{
		{65536, 0.99, 5778830886, 40463, 0x817cfb0f75d4d3b7},
		{4096, 0.95, 529811360, 47093, 0xfbde6f76fa00fb21},
		{1000, 0.75, 232125548, 31533, 0x9c0d5d2db654770b},
	}
	for _, c := range cases {
		z := NewZipf(New(42), c.n, c.theta)
		var sum uint64
		ones := 0
		h := uint64(14695981039346656037) // FNV-1a over the draws
		for i := 0; i < 1_000_000; i++ {
			k := z.Next()
			sum += uint64(k)
			h = (h ^ uint64(k)) * 1099511628211
			if k == 1 {
				ones++
			}
		}
		if sum != c.sum || ones != c.ones || h != c.digest {
			t.Errorf("Zipf(%d, %v): sum %d, ones %d, digest %#016x; want %d, %d, %#016x",
				c.n, c.theta, sum, ones, h, c.sum, c.ones, c.digest)
		}
	}
	if one := NewZipf(New(1), 0, 0.99); one.n != 1 || one.Next() != 0 {
		t.Error("n < 1 must clamp to a single item")
	}
}

// TestFaultRulePinned checks the decision against the pattern both
// injectors produced before they shared this rule: seed 7, every 5th
// event or a 20% coin, none in the first 3 events, at most 12 faults.
func TestFaultRulePinned(t *testing.T) {
	f := FaultRule{Seed: 7, Nth: 5, Prob: 0.2, After: 3, MaxFaults: 12}
	var mask, injected uint64
	for seq := uint64(1); seq <= 64; seq++ {
		if f.Fires(seq, injected) {
			mask |= 1 << (seq - 1)
			injected++
		}
	}
	if mask != 0x00000024211a5218 || injected != 12 {
		t.Errorf("mask %#016x injected %d, want 0x00000024211a5218 and 12", mask, injected)
	}
	// After is inclusive: with every event eligible, the first fault is
	// event After+1.
	gated := FaultRule{Nth: 1, After: 3}
	for seq := uint64(1); seq <= 4; seq++ {
		if got := gated.Fires(seq, 0); got != (seq == 4) {
			t.Errorf("After 3: event %d fired = %v", seq, got)
		}
	}
	var zero FaultRule
	for seq := uint64(1); seq <= 1000; seq++ {
		if zero.Fires(seq, 0) {
			t.Fatalf("zero rule fired at seq %d", seq)
		}
	}
}

// TestHotPathInlines asserts that the per-draw functions stay within the
// compiler's inlining budget: the workload generators and graph set-up
// call them once per draw, and the copies they replaced all inlined.
func TestHotPathInlines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the compiler")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	out, err := exec.Command(gobin, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, fn := range []string{"(*RNG).Uint64", "(*RNG).Float64", "(*RNG).Intn", "Mix"} {
		if !strings.Contains(string(out), "can inline "+fn+"\n") {
			t.Errorf("%s is no longer inlinable:\n%s", fn, out)
		}
	}
}
