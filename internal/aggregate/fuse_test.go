package aggregate

import (
	"testing"

	"netlistre/internal/gen"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
)

func TestFuseMuxTree(t *testing.T) {
	// A 4:1 mux tree: two first-level 2:1 muxes feeding a second-level
	// 2:1 mux. The three aggregated muxes must fuse into one module.
	nl := netlist.New("tree")
	s0 := nl.AddInput("s0")
	s1 := nl.AddInput("s1")
	var data []gen.Word
	for i := 0; i < 4; i++ {
		data = append(data, gen.InputWord(nl, string(rune('a'+i)), 4))
	}
	out := gen.MuxTree(nl, gen.Word{s0, s1}, data)
	mods := CommonSignal(nl, analyze(nl, false))

	muxes := 0
	for _, m := range mods {
		if m.Type == module.Mux {
			muxes++
		}
	}
	if muxes < 3 {
		t.Fatalf("aggregated %d muxes, want >= 3", muxes)
	}

	fused := Fuse(mods)
	if len(fused) == 0 {
		t.Fatal("no fused module produced")
	}
	var best *module.Module
	for _, f := range fused {
		if best == nil || f.Size() > best.Size() {
			best = f
		}
	}
	// The fused module must expose the tree outputs.
	outs := best.Port("out")
	outSet := make(map[netlist.ID]bool)
	for _, o := range outs {
		outSet[o] = true
	}
	for i, o := range out {
		if !outSet[o] {
			t.Errorf("fused module missing tree output bit %d", i)
		}
	}
	// And it must cover at least as much as the three constituent muxes.
	if best.Size() < 3*4*3 { // 3 muxes x 4 bits x >=3 gates per slice
		t.Errorf("fused module covers %d elements, suspiciously few", best.Size())
	}
}

func TestFuseNothingWhenDisconnected(t *testing.T) {
	nl := netlist.New("d")
	s1 := nl.AddInput("s1")
	s2 := nl.AddInput("s2")
	a := gen.InputWord(nl, "a", 4)
	b := gen.InputWord(nl, "b", 4)
	c := gen.InputWord(nl, "c", 4)
	d := gen.InputWord(nl, "d", 4)
	gen.Mux2Word(nl, s1, a, b)
	gen.Mux2Word(nl, s2, c, d)
	mods := CommonSignal(nl, analyze(nl, false))
	if fused := Fuse(mods); len(fused) != 0 {
		t.Errorf("disconnected muxes fused: %d modules", len(fused))
	}
}

func TestFuseDecoderIntoRouting(t *testing.T) {
	// A decoder whose one-hot outputs drive the select inputs of a bank of
	// muxes fuses into a routing structure (Section II-F's second fusion
	// pattern).
	nl := netlist.New("route")
	sel := gen.InputWord(nl, "s", 2)
	dec := gen.Decoder(nl, sel) // 4 one-hot outputs
	bus := gen.InputWord(nl, "bus", 4)
	var srcs []gen.Word
	for k := 0; k < 4; k++ {
		srcs = append(srcs, gen.InputWord(nl, "src"+string(rune('a'+k)), 4))
	}
	// Each decoder output selects its source onto a per-lane mux.
	for k := 0; k < 4; k++ {
		out := gen.Mux2Word(nl, dec[k], bus, srcs[k])
		gen.MarkOutputs(nl, "y"+string(rune('a'+k)), out)
	}

	res := analyze(nl, false)
	muxMods := CommonSignal(nl, res)
	var fusable []*module.Module
	for _, m := range muxMods {
		if m.Type == module.Mux {
			fusable = append(fusable, m)
		}
	}
	if len(fusable) < 4 {
		t.Fatalf("aggregated %d muxes, want 4", len(fusable))
	}
	decMod := module.New(module.Decoder, 4, dec)
	decMod.SetPort("out", dec)
	decMod.SetPort("in", sel)
	fusable = append(fusable, decMod)

	fused := Fuse(fusable)
	foundRouting := false
	for _, f := range fused {
		if f.Attr["kind"] == "decoder+mux routing structure" {
			foundRouting = true
			// The routing structure must swallow the decoder and all muxes.
			if f.Attr["members"] != "5" {
				t.Errorf("routing members = %s, want 5", f.Attr["members"])
			}
		}
	}
	if !foundRouting {
		t.Errorf("decoder+mux routing not fused (got %d fused modules)", len(fused))
	}
}

func TestChainWithBranchingCarry(t *testing.T) {
	// An adder whose carry chain also feeds external logic (overflow flag
	// consumers) must still aggregate as one adder.
	nl := netlist.New("branch")
	a := gen.InputWord(nl, "a", 6)
	b := gen.InputWord(nl, "b", 6)
	sum, cout := gen.RippleAdder(nl, a, b, netlist.Nil)
	// External consumers of intermediate carries.
	probe := nl.AddInput("probe")
	for _, s := range sum[2:4] {
		nl.AddGate(netlist.And, s, probe)
	}
	nl.MarkOutput("v", nl.AddGate(netlist.Xor, cout, probe))

	mods := PropagatedSignal(nl, analyze(nl, false))
	best := 0
	for _, m := range mods {
		if m.Type == module.Adder && m.Width > best {
			best = m.Width
		}
	}
	if best != 6 {
		t.Errorf("adder width with branching consumers = %d, want 6", best)
	}
}
