package seq

import (
	"slices"
	"testing"

	"netlistre/internal/aggregate"
	"netlistre/internal/bitslice"
	"netlistre/internal/gen"
	"netlistre/internal/graph"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
)

func TestCounterDetection(t *testing.T) {
	for _, down := range []bool{false, true} {
		nl := netlist.New("ctr")
		en := nl.AddInput("en")
		rst := nl.AddInput("rst")
		q := gen.Counter(nl, 6, en, rst, down)
		lcg := graph.BuildLCG(nl)
		mods := FindCounters(nl, lcg)
		if len(mods) != 1 {
			t.Fatalf("down=%v: found %d counters, want 1", down, len(mods))
		}
		m := mods[0]
		if m.Width != 6 {
			t.Errorf("down=%v: width = %d, want 6", down, m.Width)
		}
		wantDir := "up"
		if down {
			wantDir = "down"
		}
		if m.Attr["direction"] != wantDir {
			t.Errorf("direction = %q, want %q", m.Attr["direction"], wantDir)
		}
		qs := m.Port("q")
		for i := range q {
			if qs[i] != q[i] {
				t.Errorf("q[%d] = %d, want %d", i, qs[i], q[i])
			}
		}
		// The module must cover the latches and their toggle logic.
		if m.Size() < 6+6 {
			t.Errorf("counter covers only %d elements", m.Size())
		}
	}
}

func TestShiftRegisterIsNotCounter(t *testing.T) {
	nl := netlist.New("sh")
	en := nl.AddInput("en")
	rst := nl.AddInput("rst")
	sin := nl.AddInput("sin")
	gen.ShiftRegister(nl, 6, en, rst, sin)
	lcg := graph.BuildLCG(nl)
	if mods := FindCounters(nl, lcg); len(mods) != 0 {
		t.Errorf("shift register misdetected as %d counters", len(mods))
	}
}

func TestShiftRegisterDetection(t *testing.T) {
	nl := netlist.New("sh")
	en := nl.AddInput("en")
	rst := nl.AddInput("rst")
	sin := nl.AddInput("sin")
	q := gen.ShiftRegister(nl, 7, en, rst, sin)
	lcg := graph.BuildLCG(nl)
	mods := FindShiftRegisters(nl, lcg)
	if len(mods) != 1 {
		t.Fatalf("found %d shift registers, want 1", len(mods))
	}
	m := mods[0]
	if m.Width != 7 {
		t.Errorf("width = %d, want 7", m.Width)
	}
	qs := m.Port("q0")
	for i := range q {
		if qs[i] != q[i] {
			t.Errorf("q0[%d] = %d, want %d", i, qs[i], q[i])
		}
	}
}

func TestShiftRegisterAggregation(t *testing.T) {
	// Two lanes shifting in tandem (same enable/reset) must aggregate; a
	// third with a different enable must not.
	nl := netlist.New("sh3")
	en := nl.AddInput("en")
	en2 := nl.AddInput("en2")
	rst := nl.AddInput("rst")
	s1 := nl.AddInput("s1")
	s2 := nl.AddInput("s2")
	s3 := nl.AddInput("s3")
	gen.ShiftRegister(nl, 5, en, rst, s1)
	gen.ShiftRegister(nl, 5, en, rst, s2)
	gen.ShiftRegister(nl, 5, en2, rst, s3)
	lcg := graph.BuildLCG(nl)
	mods := FindShiftRegisters(nl, lcg)
	if len(mods) != 2 {
		t.Fatalf("found %d shift-register modules, want 2", len(mods))
	}
	lanes := map[string]bool{}
	for _, m := range mods {
		lanes[m.Attr["lanes"]] = true
	}
	if !lanes["2"] || !lanes["1"] {
		t.Errorf("lane grouping wrong: %v", lanes)
	}
}

func TestCounterIsNotShiftRegister(t *testing.T) {
	nl := netlist.New("c")
	en := nl.AddInput("en")
	rst := nl.AddInput("rst")
	gen.Counter(nl, 6, en, rst, false)
	lcg := graph.BuildLCG(nl)
	if mods := FindShiftRegisters(nl, lcg); len(mods) != 0 {
		t.Errorf("counter misdetected as %d shift registers", len(mods))
	}
}

func TestRAMDetection(t *testing.T) {
	nl := netlist.New("rf")
	waddr := gen.InputWord(nl, "wa", 3)
	raddr := gen.InputWord(nl, "ra", 3)
	wdata := gen.InputWord(nl, "wd", 4)
	we := nl.AddInput("we")
	read, cells := gen.RegisterFile(nl, 8, 4, waddr, wdata, we, raddr)
	slices := bitslice.Find(nl, bitslice.Options{})
	mods := FindRAMs(nl, slices)
	if len(mods) != 1 {
		t.Fatalf("found %d RAMs, want 1", len(mods))
	}
	m := mods[0]
	if got := len(m.Port("cells")); got != 32 {
		t.Errorf("cells = %d, want 32", got)
	}
	if got := len(m.Port("read")); got != 4 {
		t.Errorf("read outputs = %d, want 4", got)
	}
	if m.Attr["write-logic"] != "verified" {
		t.Error("write logic not verified")
	}
	if got := len(m.Port("we")); got != 8 {
		t.Errorf("write enables = %d, want 8", got)
	}
	// All storage latches must be covered.
	elemSet := make(map[netlist.ID]bool)
	for _, e := range m.Elements {
		elemSet[e] = true
	}
	for _, w := range cells {
		for _, c := range w {
			if !elemSet[c] {
				t.Errorf("cell %d not covered", c)
			}
		}
	}
	_ = read
}

func TestPlainRegisterIsNotRAM(t *testing.T) {
	// A single register has no read select: must not be reported.
	nl := netlist.New("reg")
	d := gen.InputWord(nl, "d", 8)
	we := nl.AddInput("we")
	gen.Register(nl, d, we)
	slices := bitslice.Find(nl, bitslice.Options{})
	if mods := FindRAMs(nl, slices); len(mods) != 0 {
		t.Errorf("plain register misdetected as %d RAMs", len(mods))
	}
}

func TestMultibitRegisterDetection(t *testing.T) {
	nl := netlist.New("mbr")
	v1 := gen.InputWord(nl, "v1", 8)
	v2 := gen.InputWord(nl, "v2", 8)
	v3 := gen.InputWord(nl, "v3", 8)
	c1 := nl.AddInput("c1")
	c2 := nl.AddInput("c2")
	c3 := nl.AddInput("c3")
	q := gen.MultibitRegister(nl, []gen.Word{v1, v2, v3}, []netlist.ID{c1, c2, c3})

	res := bitslice.Find(nl, bitslice.Options{})
	muxes := aggregate.CommonSignal(nl, res)
	mods := FindMultibitRegisters(nl, muxes)
	var best *module.Module
	for _, m := range mods {
		if best == nil || m.Size() > best.Size() {
			best = m
		}
	}
	if best == nil {
		t.Fatalf("no multibit register found (from %d mux modules)", len(muxes))
	}
	if best.Width != 8 {
		t.Errorf("width = %d, want 8", best.Width)
	}
	qs := best.Port("q")
	qSet := make(map[netlist.ID]bool)
	for _, x := range qs {
		qSet[x] = true
	}
	for i, l := range q {
		if !qSet[l] {
			t.Errorf("latch %d (bit %d) not in register", l, i)
		}
	}
	// c3 wraps the cascade, so it is outermost although its ID is the
	// largest: cond lists the conditions in cascade order, not ID order.
	if got, want := best.Port("cond"), []netlist.ID{c3, c2, c1}; !slices.Equal(got, want) {
		t.Errorf("cond = %v, want %v (outermost first)", got, want)
	}
}

func TestSimpleRegisterAsMultibit(t *testing.T) {
	nl := netlist.New("reg")
	d := gen.InputWord(nl, "d", 6)
	we := nl.AddInput("we")
	q := gen.Register(nl, d, we)
	res := bitslice.Find(nl, bitslice.Options{})
	muxes := aggregate.CommonSignal(nl, res)
	mods := FindMultibitRegisters(nl, muxes)
	if len(mods) == 0 {
		t.Fatal("write-enabled register not detected as multibit register")
	}
	if mods[0].Width != 6 {
		t.Errorf("width = %d, want 6", mods[0].Width)
	}
	_ = q
}

func TestReadTreeGatedByConstant(t *testing.T) {
	// A 2-latch read mux ANDed with a tied-off constant: the constant
	// folds, so the only select is s and both latches are cells.
	nl := netlist.New("ramc")
	s := nl.AddInput("s")
	l0 := nl.AddLatch(nl.AddInput("d0"))
	l1 := nl.AddLatch(nl.AddInput("d1"))
	mux := nl.AddGate(netlist.Or,
		nl.AddGate(netlist.And, nl.AddGate(netlist.Not, s), l0),
		nl.AddGate(netlist.And, s, l1))
	root := nl.AddGate(netlist.And, mux, nl.AddConst(true))
	selects, cells, ok := verifyReadBehavior(nl, markReadLogic(nl, nl.TopoOrder()), root)
	if !ok {
		t.Fatal("constant-gated read tree rejected")
	}
	if len(selects) != 1 || selects[0] != s {
		t.Errorf("selects = %v, want [%d]", selects, s)
	}
	if len(cells) != 2 || cells[0] != l0 || cells[1] != l1 {
		t.Errorf("cells = %v, want [%d %d]", cells, l0, l1)
	}
}
