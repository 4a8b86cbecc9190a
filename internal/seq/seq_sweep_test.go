package seq

import (
	"fmt"
	"math/rand"
	"testing"

	"netlistre/internal/bitslice"
	"netlistre/internal/gen"
	"netlistre/internal/graph"
	"netlistre/internal/netlist"
)

// TestCounterSweep detects counters across widths, directions, and with
// always-enabled variants.
func TestCounterSweep(t *testing.T) {
	for width := 3; width <= 9; width++ {
		for _, down := range []bool{false, true} {
			name := fmt.Sprintf("w%d-down%v", width, down)
			t.Run(name, func(t *testing.T) {
				nl := netlist.New("ctr")
				en := nl.AddInput("en")
				rst := nl.AddInput("rst")
				gen.Counter(nl, width, en, rst, down)
				mods := FindCounters(nl, graph.BuildLCG(nl))
				if len(mods) != 1 || mods[0].Width != width {
					t.Fatalf("counters = %v", mods)
				}
				wantDir := "up"
				if down {
					wantDir = "down"
				}
				if mods[0].Attr["direction"] != wantDir {
					t.Errorf("direction = %s", mods[0].Attr["direction"])
				}
			})
		}
	}
}

// TestAlwaysEnabledCounter uses a constant-true enable: the f/g sanity
// check must still accept (f=¬r, g=0 — there is an assignment with f∧¬g).
func TestAlwaysEnabledCounter(t *testing.T) {
	nl := netlist.New("free")
	rst := nl.AddInput("rst")
	one := nl.AddConst(true)
	en := nl.AddGate(netlist.Buf, one)
	gen.Counter(nl, 5, en, rst, false)
	mods := FindCounters(nl, graph.BuildLCG(nl))
	if len(mods) != 1 || mods[0].Width != 5 {
		t.Fatalf("free-running counter not found: %v", mods)
	}
}

// TestBrokenCounterRejected flips one toggle condition: the SAT check must
// reject the tampered bit while still accepting the clean prefix.
func TestBrokenCounterRejected(t *testing.T) {
	nl := netlist.New("bork")
	en := nl.AddInput("en")
	rst := nl.AddInput("rst")
	q := gen.Counter(nl, 6, en, rst, false)
	// Tamper with bit 4: make it toggle when lower bits are NOT all high
	// (detach its D and rewire with an inverter in the enable path).
	d4 := nl.Fanin(q[4])[0]
	nl.SetLatchD(q[4], nl.AddGate(netlist.Not, d4))
	mods := FindCounters(nl, graph.BuildLCG(nl))
	for _, m := range mods {
		if m.Width > 4 {
			t.Errorf("tampered counter accepted at width %d", m.Width)
		}
	}
	// The intact low-order prefix should still be found.
	found := false
	for _, m := range mods {
		if m.Width >= 3 {
			found = true
		}
	}
	if !found {
		t.Error("clean counter prefix not found")
	}
}

// TestShiftSweep detects shift registers across lengths.
func TestShiftSweep(t *testing.T) {
	for width := 3; width <= 10; width += 2 {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			nl := netlist.New("sh")
			en := nl.AddInput("en")
			rst := nl.AddInput("rst")
			sin := nl.AddInput("sin")
			gen.ShiftRegister(nl, width, en, rst, sin)
			mods := FindShiftRegisters(nl, graph.BuildLCG(nl))
			if len(mods) != 1 || mods[0].Width != width {
				t.Fatalf("shift registers = %v", mods)
			}
		})
	}
}

// TestPlainPipelineIsShiftRegister verifies an enable-less register chain
// (d_i = q_{i-1}) is found: e is constant-1, the cofactor check still
// distinguishes f (load 1) from g (load 0).
func TestPlainPipelineIsShiftRegister(t *testing.T) {
	nl := netlist.New("pipe")
	sin := nl.AddInput("sin")
	prev := sin
	for i := 0; i < 6; i++ {
		prev = nl.AddLatch(prev)
	}
	mods := FindShiftRegisters(nl, graph.BuildLCG(nl))
	if len(mods) != 1 || mods[0].Width != 6 {
		t.Fatalf("pipeline not detected: %v", mods)
	}
}

// TestBrokenShiftRejected inverts one stage: stage polarity breaks the
// f/g equality and truncates the detected chain.
func TestBrokenShiftRejected(t *testing.T) {
	nl := netlist.New("bsh")
	en := nl.AddInput("en")
	rst := nl.AddInput("rst")
	sin := nl.AddInput("sin")
	q := gen.ShiftRegister(nl, 7, en, rst, sin)
	d := nl.Fanin(q[4])[0]
	nl.SetLatchD(q[4], nl.AddGate(netlist.Not, d))
	mods := FindShiftRegisters(nl, graph.BuildLCG(nl))
	for _, m := range mods {
		if m.Width == 7 {
			t.Error("tampered shift register accepted at full length")
		}
	}
}

// TestRAMSweep detects register files across geometries.
func TestRAMSweep(t *testing.T) {
	for _, geom := range []struct{ words, width, abits int }{
		{4, 4, 2}, {8, 8, 3}, {16, 4, 4},
	} {
		t.Run(fmt.Sprintf("%dx%d", geom.words, geom.width), func(t *testing.T) {
			nl := netlist.New("rf")
			waddr := gen.InputWord(nl, "wa", geom.abits)
			raddr := gen.InputWord(nl, "ra", geom.abits)
			wdata := gen.InputWord(nl, "wd", geom.width)
			we := nl.AddInput("we")
			gen.RegisterFile(nl, geom.words, geom.width, waddr, wdata, we, raddr)
			slices := bitslice.Find(nl, bitslice.Options{})
			mods := FindRAMs(nl, slices)
			if len(mods) != 1 {
				t.Fatalf("RAMs = %d", len(mods))
			}
			if got := len(mods[0].Port("cells")); got != geom.words*geom.width {
				t.Errorf("cells = %d, want %d", got, geom.words*geom.width)
			}
			if got := len(mods[0].Port("we")); got != geom.words {
				t.Errorf("write enables = %d, want %d", got, geom.words)
			}
		})
	}
}

// TestCountersInNoise embeds counters in random logic; both must be found
// and nothing else.
func TestCountersInNoise(t *testing.T) {
	nl := netlist.New("noise")
	en1 := nl.AddInput("en1")
	en2 := nl.AddInput("en2")
	rst := nl.AddInput("rst")
	gen.Counter(nl, 5, en1, rst, false)
	gen.Counter(nl, 4, en2, rst, true)
	// Random latched logic around them.
	rng := rand.New(rand.NewSource(77))
	pool := []netlist.ID{en1, en2, rst}
	for i := 0; i < 60; i++ {
		a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		kinds := []netlist.Kind{netlist.And, netlist.Or, netlist.Xor, netlist.Nand}
		g := nl.AddGate(kinds[rng.Intn(4)], a, b)
		pool = append(pool, g)
		if i%6 == 0 {
			pool = append(pool, nl.AddLatch(g))
		}
	}
	mods := FindCounters(nl, graph.BuildLCG(nl))
	widths := map[int]int{}
	for _, m := range mods {
		widths[m.Width]++
	}
	if widths[5] != 1 || widths[4] != 1 {
		t.Errorf("counter widths found: %v, want one 5-bit and one 4-bit", widths)
	}
}

// TestMultiPortRegisterFile verifies that a two-read-port register file is
// reported as ONE RAM module with both ports (the paper's 32x32 2r1w case).
func TestMultiPortRegisterFile(t *testing.T) {
	nl := netlist.New("rf2")
	waddr := gen.InputWord(nl, "wa", 3)
	r1 := gen.InputWord(nl, "ra", 3)
	r2 := gen.InputWord(nl, "rb", 3)
	wdata := gen.InputWord(nl, "wd", 4)
	we := nl.AddInput("we")
	read1, cells := gen.RegisterFile(nl, 8, 4, waddr, wdata, we, r1)
	var flat []gen.Word
	flat = append(flat, cells...)
	read2 := gen.MuxTree(nl, r2, flat)
	gen.MarkOutputs(nl, "r1_", read1)
	gen.MarkOutputs(nl, "r2_", read2)

	slices := bitslice.Find(nl, bitslice.Options{})
	mods := FindRAMs(nl, slices)
	if len(mods) != 1 {
		t.Fatalf("RAM modules = %d, want 1 merged array", len(mods))
	}
	m := mods[0]
	if m.Attr["read-ports"] != "2" {
		t.Errorf("read-ports = %q, want 2", m.Attr["read-ports"])
	}
	if got := len(m.Port("cells")); got != 32 {
		t.Errorf("cells = %d, want 32", got)
	}
	if len(m.Port("read0")) != 4 || len(m.Port("read1")) != 4 {
		t.Errorf("per-port reads = %d/%d", len(m.Port("read0")), len(m.Port("read1")))
	}
	if m.Attr["write-logic"] != "verified" {
		t.Error("write logic not verified on multi-port array")
	}
}

// TestJohnsonCounterClassification documents the detector boundary: a
// Johnson (twisted-ring) counter is neither a binary counter (toggle
// conditions differ) nor a plain unidirectional shift register (the ring
// closes, so no chain head exists).
func TestJohnsonCounterClassification(t *testing.T) {
	nl := netlist.New("jc")
	en := nl.AddInput("en")
	rst := nl.AddInput("rst")
	gen.JohnsonCounter(nl, 6, en, rst)
	lcg := graph.BuildLCG(nl)
	for _, m := range FindCounters(nl, lcg) {
		t.Errorf("Johnson counter misdetected as binary %s", m.Name)
	}
	for _, m := range FindShiftRegisters(nl, lcg) {
		if m.Width == 6 {
			t.Errorf("closed Johnson ring misdetected as full shift register")
		}
	}
}

// TestGrayCounterRejected: the Gray counter matches the counter topology
// loosely but must fail the functional toggle check.
func TestGrayCounterRejected(t *testing.T) {
	nl := netlist.New("gc")
	en := nl.AddInput("en")
	rst := nl.AddInput("rst")
	gen.GrayCounter(nl, 4, en, rst)
	for _, m := range FindCounters(nl, graph.BuildLCG(nl)) {
		t.Errorf("Gray counter misdetected as binary %s", m.Name)
	}
}

// TestLFSRInteriorChain: the LFSR's interior stages form a genuine shift
// chain; the detector may find that segment (the ring feedback excludes the
// full ring). Whatever is found must be a strict interior segment.
func TestLFSRInteriorChain(t *testing.T) {
	nl := netlist.New("lfsr")
	en := nl.AddInput("en")
	rst := nl.AddInput("rst")
	q := gen.LFSR(nl, 8, []int{7, 5}, en, rst)
	mods := FindShiftRegisters(nl, graph.BuildLCG(nl))
	qset := map[netlist.ID]bool{}
	for _, l := range q {
		qset[l] = true
	}
	for _, m := range mods {
		if m.Width > 7 {
			t.Errorf("full LFSR ring claimed as open shift register (width %d)", m.Width)
		}
		for _, l := range m.Port("q0") {
			if !qset[l] {
				t.Errorf("shift segment contains foreign latch %d", l)
			}
		}
	}
}
