package rtl

import (
	"bytes"
	"testing"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/netlist"
)

// fuzzSeedDesigns builds the small designs whose Verilog seeds the corpus:
// one per component class the planner lowers, plus a passthrough mix.
func fuzzSeedDesigns() []*netlist.Netlist {
	var designs []*netlist.Netlist
	add := func(name string, build func(nl *netlist.Netlist)) {
		nl := netlist.New(name)
		build(nl)
		designs = append(designs, nl)
	}
	add("seed_counter", func(nl *netlist.Netlist) {
		en, rst := nl.AddInput("en"), nl.AddInput("rst")
		gen.MarkOutputs(nl, "q", gen.Counter(nl, 4, en, rst, false))
	})
	add("seed_adder", func(nl *netlist.Netlist) {
		a := gen.InputWord(nl, "a", 4)
		b := gen.InputWord(nl, "b", 4)
		sum, cout := gen.RippleAdder(nl, a, b, netlist.Nil)
		gen.MarkOutputs(nl, "sum", sum)
		nl.MarkOutput("cout", cout)
	})
	add("seed_shift", func(nl *netlist.Netlist) {
		en, rst, si := nl.AddInput("en"), nl.AddInput("rst"), nl.AddInput("si")
		gen.MarkOutputs(nl, "q", gen.ShiftRegister(nl, 4, en, rst, si))
	})
	add("seed_mux", func(nl *netlist.Netlist) {
		sel := nl.AddInput("sel")
		d0 := gen.InputWord(nl, "d0", 3)
		d1 := gen.InputWord(nl, "d1", 3)
		gen.MarkOutputs(nl, "y", gen.Mux2Word(nl, sel, d0, d1))
	})
	add("seed_mix", func(nl *netlist.Netlist) {
		a, b, c := nl.AddInput("a"), nl.AddInput("b"), nl.AddInput("c")
		g := nl.AddGate(netlist.And, a, b)
		h := nl.AddGate(netlist.Xor, g, c)
		l := nl.AddNamedLatch("state", h)
		nl.MarkOutput("y", nl.AddGate(netlist.Or, l, g))
	})
	return designs
}

// fuzzMaxElements bounds accepted inputs so one fuzz iteration stays in
// the millisecond range; anything larger exercises no new emitter paths.
const fuzzMaxElements = 400

// FuzzEmitRTL feeds arbitrary structural Verilog through the whole
// decompilation round trip: parse -> analyze -> emit -> elaborate ->
// equivalence. Whatever the parser accepts and the validator admits, the
// emitted RTL must re-elaborate and verify equivalent to the source — the
// fuzzer is hunting for netlist shapes where the planner hides a net it
// should not, the elaborator mis-sequences a latch, or the emission is
// simply wrong.
func FuzzEmitRTL(f *testing.F) {
	for _, nl := range fuzzSeedDesigns() {
		var buf bytes.Buffer
		if err := nl.WriteVerilog(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		nl, err := netlist.ReadVerilog(bytes.NewReader(data))
		if err != nil {
			return // not parseable: out of scope
		}
		if err := nl.Validate(); err != nil {
			return // cyclic or malformed: analysis would reject it too
		}
		st := nl.Stats()
		if st.Gates+st.Latches+st.Inputs > fuzzMaxElements {
			return
		}
		rep := core.Analyze(nl, core.Options{Workers: 1})
		er, eq, err := Decompile(nl, rep)
		if err != nil {
			t.Fatalf("decompile failed on valid netlist: %v\ninput:\n%s", err, data)
		}
		if !eq.Equivalent {
			t.Fatalf("round trip not equivalent: %v\ninput:\n%s\nemitted:\n%s",
				eq, data, er.Verilog)
		}
	})
}

// elaborateSeeds returns emitted RTL for the fuzz seed designs and the
// wide-register designs, plus line-ending variants: CRLF line ends, an
// unterminated final line, and a template body with text the tokenizer
// rejects.
func elaborateSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	designs := fuzzSeedDesigns()
	for _, width := range []int{65, 130} {
		designs = append(designs, wideRegisterDesign(width))
	}
	for _, nl := range designs {
		er, err := Emit(nl, core.Analyze(nl, core.Options{Workers: 1}))
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, er.Verilog,
			bytes.ReplaceAll(er.Verilog, []byte("\n"), []byte("\r\n")),
			bytes.TrimSuffix(er.Verilog, []byte("\n")))
	}
	seeds = append(seeds,
		[]byte("module m (a, y);\n  input a;\n  output y;\n  not g0 (y, a);\nendmodule\n\nmodule re_parity_w2 (in, out);\n  assign out = ^in; // ~&|\n  endmodule  \n"),
		[]byte("module m (a, y);\r\n  input a;\r\n  output y;\r\n  assign y = a;\r\nendmodule"),
		[]byte("module m (a, y);\n  input a;\n  output y;\n  buf g0 (y, a);\r\r\nendmodule\n"))
	return seeds
}

// FuzzElaborate feeds arbitrary text to the in-place scanner and to the
// previous line scanner (scanLines): both must fail with the same message,
// or both must build netlists with the same fingerprint and node names.
func FuzzElaborate(f *testing.F) {
	for _, s := range elaborateSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := elaborate(string(data))
		want, wantErr := func() (*netlist.Netlist, error) {
			e, err := scanLines(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			return e.build()
		}()
		if err != nil || wantErr != nil {
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("errors differ: in place %v, line scanner %v\ninput:\n%q", err, wantErr, data)
			}
			return
		}
		if got.Fingerprint() != want.Fingerprint() || got.Len() != want.Len() {
			t.Fatalf("netlists differ\ninput:\n%q", data)
		}
		for id := netlist.ID(0); int(id) < got.Len(); id++ {
			if got.NameOf(id) != want.NameOf(id) {
				t.Fatalf("node %d named %s, line scanner %s\ninput:\n%q", id, got.NameOf(id), want.NameOf(id), data)
			}
		}
	})
}
