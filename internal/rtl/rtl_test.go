package rtl

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/netlist"
)

func analyze(t *testing.T, nl *netlist.Netlist, workers int) *core.Report {
	t.Helper()
	rep := core.Analyze(nl, core.Options{Workers: workers})
	if rep == nil {
		t.Fatal("analysis returned nil report")
	}
	return rep
}

func decompileOK(t *testing.T, nl *netlist.Netlist, rep *core.Report) (*EmitResult, *EquivResult) {
	t.Helper()
	er, eq, err := Decompile(nl, rep)
	if err != nil {
		if er != nil {
			t.Logf("emitted RTL:\n%s", er.Verilog)
		}
		t.Fatalf("Decompile: %v", err)
	}
	if !eq.Equivalent {
		t.Fatalf("not equivalent: %v\nemitted RTL:\n%s", eq, er.Verilog)
	}
	return er, eq
}

// TestPassthroughFingerprint: with no resolved structure the emission is a
// pure structural passthrough, which names every gate, so the check must
// prove it gate by gate.
func TestPassthroughFingerprint(t *testing.T) {
	nl := netlist.New("plain")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	g := nl.AddNamedGate("g", netlist.And, a, b)
	h := nl.AddGate(netlist.Xor, g, nl.AddConst(true))
	l := nl.AddNamedLatch("state", h)
	nl.MarkOutput("y", nl.AddGate(netlist.Or, l, a))

	er, _ := decompileOK(t, nl, nil)
	provedGateByGate(t, nl, er)
	if er.Stats.ResidualGates != 3 || er.Stats.ResidualLatches != 1 {
		t.Fatalf("stats = %+v", er.Stats)
	}
}

// provedGateByGate requires the check of a passthrough emission to prove
// every gate at its named net over its fanins' cuts, and every compared
// signal at the cut.
func provedGateByGate(t *testing.T, nl *netlist.Netlist, er *EmitResult) {
	t.Helper()
	eq, st, err := prove(nl, er, proofBDDLimit)
	if err != nil {
		t.Fatal(err)
	}
	gates := nl.Stats().Gates
	if st.named != gates || st.cuts != gates || st.deepCuts != 0 || st.deepSignals != 0 || !eq.Equivalent {
		t.Fatalf("%d of %d gates proved (%d named), %d gates and %d signals only past the cut, result %v\n%s",
			st.cuts, gates, st.named, st.deepCuts, st.deepSignals, eq, er.Verilog)
	}
}

// oneBlock pins a sequential case that lowers to exactly one always
// block and leaves no latch residual.
func oneBlock(t *testing.T, _ *core.Report, st EmitStats) {
	if st.AlwaysBlocks != 1 || st.ResidualLatches != 0 {
		t.Fatalf("stats %+v, want 1 always-block and 0 residual latches", st)
	}
}

// TestComponentRoundTrip drives each component class the planner lowers
// through analyze -> emit -> elaborate -> equivalence. Sequential cases
// run a second time LUT-mapped, which must lower the same blocks.
func TestComponentRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		seq   bool
		build func(nl *netlist.Netlist)
		// check, when set, pins what the case resolves and lowers.
		check func(t *testing.T, rep *core.Report, st EmitStats)
	}{
		{"counter-up", true, func(nl *netlist.Netlist) {
			en, rst := nl.AddInput("en"), nl.AddInput("rst")
			gen.MarkOutputs(nl, "q", gen.Counter(nl, 4, en, rst, false))
		}, oneBlock},
		{"counter-down", true, func(nl *netlist.Netlist) {
			en, rst := nl.AddInput("en"), nl.AddInput("rst")
			gen.MarkOutputs(nl, "q", gen.Counter(nl, 4, en, rst, true))
		}, oneBlock},
		// No width cap: the proof is one BDD equality per bit.
		{"counter-up-24", true, func(nl *netlist.Netlist) {
			en, rst := nl.AddInput("en"), nl.AddInput("rst")
			gen.MarkOutputs(nl, "q", gen.Counter(nl, 24, en, rst, false))
		}, oneBlock},
		{"shift", true, func(nl *netlist.Netlist) {
			en, rst, si := nl.AddInput("en"), nl.AddInput("rst"), nl.AddInput("si")
			gen.MarkOutputs(nl, "q", gen.ShiftRegister(nl, 5, en, rst, si))
		}, oneBlock},
		{"register", true, func(nl *netlist.Netlist) {
			d := gen.InputWord(nl, "d", 4)
			we := nl.AddInput("we")
			gen.MarkOutputs(nl, "q", gen.Register(nl, d, we))
		}, oneBlock},
		{"adder", false, func(nl *netlist.Netlist) {
			a := gen.InputWord(nl, "a", 4)
			b := gen.InputWord(nl, "b", 4)
			sum, cout := gen.RippleAdder(nl, a, b, netlist.Nil)
			gen.MarkOutputs(nl, "sum", sum)
			nl.MarkOutput("cout", cout)
		}, nil},
		{"subtractor", false, func(nl *netlist.Netlist) {
			a := gen.InputWord(nl, "a", 4)
			b := gen.InputWord(nl, "b", 4)
			diff, bout := gen.RippleSubtractor(nl, a, b)
			gen.MarkOutputs(nl, "diff", diff)
			nl.MarkOutput("bout", bout)
		}, nil},
		{"mux", false, func(nl *netlist.Netlist) {
			sel := nl.AddInput("sel")
			d0 := gen.InputWord(nl, "d0", 4)
			d1 := gen.InputWord(nl, "d1", 4)
			gen.MarkOutputs(nl, "out", gen.Mux2Word(nl, sel, d0, d1))
		}, nil},
		{"decoder", false, func(nl *netlist.Netlist) {
			sel := gen.InputWord(nl, "sel", 3)
			gen.MarkOutputs(nl, "out", gen.Decoder(nl, sel))
		}, nil},
		{"parity", false, func(nl *netlist.Netlist) {
			w := gen.InputWord(nl, "x", 5)
			nl.MarkOutput("p", gen.ParityTree(nl, w))
		}, nil},
		{"popcount", false, func(nl *netlist.Netlist) {
			w := gen.InputWord(nl, "x", 5)
			gen.MarkOutputs(nl, "cnt", gen.PopCount(nl, w))
		}, nil},
		{"regfile", true, func(nl *netlist.Netlist) {
			waddr := gen.InputWord(nl, "waddr", 2)
			wdata := gen.InputWord(nl, "wdata", 4)
			we := nl.AddInput("we")
			raddr := gen.InputWord(nl, "raddr", 2)
			read, _ := gen.RegisterFile(nl, 4, 4, waddr, wdata, we, raddr)
			gen.MarkOutputs(nl, "rdata", read)
		}, func(t *testing.T, rep *core.Report, st EmitStats) {
			// The resolved RAM has no template; it is lowered through the
			// verified word registers, decoder and muxes inside it.
			if len(rep.Resolved) != 1 || rep.Resolved[0].Name != "ram[4w x 4b]" {
				t.Fatalf("resolved %v, want one ram[4w x 4b]", rep.Resolved)
			}
			if st.AlwaysBlocks != 4 || st.ResidualGates != 4 || st.ResidualLatches != 0 {
				t.Fatalf("stats %+v, want 4 always-blocks, 4 residual gates, 0 latches", st)
			}
		}},
	}
	lowered := 0
	run := func(name string, build func(nl *netlist.Netlist) *netlist.Netlist,
		check func(t *testing.T, rep *core.Report, st EmitStats)) {
		t.Run(name, func(t *testing.T) {
			nl := build(netlist.New(name))
			rep := analyze(t, nl, 1)
			er, eq := decompileOK(t, nl, rep)
			t.Logf("%s: %v, stats %+v", name, eq, er.Stats)
			if check != nil {
				check(t, rep, er.Stats)
			}
			if er.Stats.Instances > 0 || er.Stats.AlwaysBlocks > 0 {
				lowered++
			}
		})
	}
	for _, tc := range cases {
		run(tc.name, func(nl *netlist.Netlist) *netlist.Netlist {
			tc.build(nl)
			return nl
		}, tc.check)
		if tc.seq {
			run(tc.name+"-lut", func(nl *netlist.Netlist) *netlist.Netlist {
				tc.build(nl)
				mapped, _ := gen.LutMapped(nl)
				return mapped
			}, tc.check)
		}
	}
	if lowered == 0 {
		t.Fatalf("no component was lowered to word-level structure")
	}
}

// TestEmitDeterministic: identical bytes across analysis worker counts.
func TestEmitDeterministic(t *testing.T) {
	nl := netlist.New("det")
	en, rst := nl.AddInput("en"), nl.AddInput("rst")
	gen.MarkOutputs(nl, "q", gen.Counter(nl, 4, en, rst, false))
	a := gen.InputWord(nl, "a", 4)
	b := gen.InputWord(nl, "b", 4)
	sum, cout := gen.RippleAdder(nl, a, b, netlist.Nil)
	gen.MarkOutputs(nl, "sum", sum)
	nl.MarkOutput("cout", cout)

	var emitted [][]byte
	for _, workers := range []int{1, 4} {
		rep := analyze(t, nl, workers)
		er, _ := decompileOK(t, nl, rep)
		emitted = append(emitted, er.Verilog)
	}
	if !bytes.Equal(emitted[0], emitted[1]) {
		t.Fatalf("emission differs across worker counts:\n--- workers=1\n%s\n--- workers=4\n%s",
			emitted[0], emitted[1])
	}
}

// TestResidualPassthrough: gates no module covers must appear verbatim in
// the residual section, with line spans resolvable via LineOf.
func TestResidualPassthrough(t *testing.T) {
	nl := netlist.New("noisy")
	a := gen.InputWord(nl, "a", 4)
	b := gen.InputWord(nl, "b", 4)
	sum, cout := gen.RippleAdder(nl, a, b, netlist.Nil)
	gen.MarkOutputs(nl, "sum", sum)
	nl.MarkOutput("cout", cout)
	// Noise logic the analysis has no template for.
	n1 := nl.AddNamedGate("noise_nand", netlist.Nand, a[0], b[3])
	n2 := nl.AddNamedGate("noise_xnor", netlist.Xnor, n1, a[2])
	nl.MarkOutput("noise_out", n2)

	rep := analyze(t, nl, 1)
	er, _ := decompileOK(t, nl, rep)
	text := string(er.Verilog)
	for id, stmt := range map[netlist.ID]string{
		n1: "nand", n2: "xnor",
	} {
		ln := er.LineOf(id)
		if ln <= 0 {
			t.Fatalf("no line span for residual node %d\n%s", id, text)
		}
		line := strings.Split(text, "\n")[ln-1]
		if !strings.Contains(line, stmt) || !strings.Contains(line, er.NameOf(id)) {
			t.Fatalf("line %d %q does not carry residual %s gate %s",
				ln, line, stmt, er.NameOf(id))
		}
	}
}

// TestLineSpansCoverAllNodes: every original node must map to an emitted
// line (declaration, statement, instance, or always block).
func TestLineSpansCoverAllNodes(t *testing.T) {
	nl := netlist.New("spans")
	en, rst := nl.AddInput("en"), nl.AddInput("rst")
	gen.MarkOutputs(nl, "q", gen.Counter(nl, 4, en, rst, false))
	rep := analyze(t, nl, 1)
	er, _ := decompileOK(t, nl, rep)
	lines := strings.Split(string(er.Verilog), "\n")
	for id := netlist.ID(0); int(id) < nl.Len(); id++ {
		ln := er.LineOf(id)
		if ln <= 0 || ln > len(lines) {
			t.Errorf("node %d (%s, kind %v): no line span", id, nl.NameOf(id), nl.Kind(id))
		}
	}
}

// TestLutRoundTrip: residual LUT cells emit as parameterized re_lut
// instances and elaborate back to cells the check proves one by one.
func TestLutRoundTrip(t *testing.T) {
	nl := netlist.New("lutted")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	c := nl.AddInput("c")
	d := nl.AddInput("d")
	l1 := nl.AddNamedLut("l1", 0xcafe, a, b, c, d)
	l2 := nl.AddNamedLut("l2", 0x6, l1, a)
	l3 := nl.AddNamedLut("l3", 0x1, l2) // 1-input: ~l2
	st := nl.AddNamedLatch("st", l3)
	nl.MarkOutput("y", nl.AddLut(0x96969696969696e8, l1, l2, l3, st, a, b))

	er, _ := decompileOK(t, nl, nil)
	provedGateByGate(t, nl, er)
	text := string(er.Verilog)
	for _, want := range []string{
		"re_lut #(.INIT(16'hcafe))",
		"re_lut #(.INIT(4'h6))",
		"re_lut #(.INIT(2'h1))",
		"re_lut #(.INIT(64'h96969696969696e8))",
		"module re_lut #(parameter K = 1, parameter INIT = 64'h0)",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("emitted RTL missing %q:\n%s", want, text)
		}
	}
}

// wideRegisterDesign holds a counter and a shift register of the given
// width, both with a synchronous reset, so the emission carries the
// width-sized reset and step literals.
func wideRegisterDesign(width int) *netlist.Netlist {
	nl := netlist.New("wide")
	en, rst, si := nl.AddInput("en"), nl.AddInput("rst"), nl.AddInput("si")
	gen.MarkOutputs(nl, "cnt", gen.Counter(nl, width, en, rst, false))
	gen.MarkOutputs(nl, "sr", gen.ShiftRegister(nl, width, en, rst, si))
	return nl
}

// TestWideRegisterRoundTrip: registers wider than 64 bits lower to always
// blocks whose literals (N'd0, N'd1) are wider than 64 bits but carry
// small values; the elaborator must accept them.
func TestWideRegisterRoundTrip(t *testing.T) {
	for _, width := range []int{64, 65, 130} {
		nl := wideRegisterDesign(width)
		er, _ := decompileOK(t, nl, analyze(t, nl, 1))
		if er.Stats.AlwaysBlocks != 2 {
			t.Errorf("width %d: stats %+v, want 2 always blocks", width, er.Stats)
		}
		if lit := fmt.Sprintf("%d'd0", width); !bytes.Contains(er.Verilog, []byte(lit)) {
			t.Errorf("width %d: emission carries no %s literal", width, lit)
		}
	}
}

// TestCheckRejectsForeignNetlist: an emission checked against a netlist
// other than the one it was emitted from is an error, not a panic.
func TestCheckRejectsForeignNetlist(t *testing.T) {
	nl := netlist.New("one")
	a, b := nl.AddInput("a"), nl.AddInput("b")
	nl.MarkOutput("y", nl.AddGate(netlist.And, a, b))
	er, err := Emit(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	other := netlist.New("other")
	other.MarkOutput("y", other.AddInput("a"))
	if _, err := Check(other, er); err == nil {
		t.Fatal("Check accepted an emission of a different netlist")
	}
}
