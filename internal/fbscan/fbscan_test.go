package fbscan

import (
	"testing"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/seq"
)

func TestFindFramebufferPlane(t *testing.T) {
	nl, pixels := gen.VGACore(8, 6)
	mods := Find(nl)
	if len(mods) != 1 {
		t.Fatalf("found %d framebuffer planes, want 1", len(mods))
	}
	m := mods[0]
	if m.Width != 6 {
		t.Errorf("width = %d, want 6 columns", m.Width)
	}
	px := m.Port("pixel")
	pxSet := make(map[netlist.ID]bool)
	for _, p := range px {
		pxSet[p] = true
	}
	for i, p := range pixels {
		if !pxSet[p] {
			t.Errorf("pixel %d missing from module", i)
		}
	}
	if got := len(m.Port("rowsel")); got != 8 {
		t.Errorf("rowsel port = %d, want 8", got)
	}
	// The module must cover all 48 cells plus the gating plane.
	if m.Size() < 8*6*2 {
		t.Errorf("module covers only %d elements", m.Size())
	}
}

func TestGenericRAMAnalysisMissesPlane(t *testing.T) {
	// The motivation for the design-specific pass: the generic RAM
	// analysis does not recognize the OR-AND read shape.
	nl, _ := gen.VGACore(8, 6)
	if mods := seq.FindRAMs(nl, nil); len(mods) != 0 {
		t.Skipf("generic analysis unexpectedly found %d RAMs; pass unnecessary", len(mods))
	}
}

func TestNonOneHotPlaneRejected(t *testing.T) {
	// An OR-AND plane whose selects are independent inputs (not one-hot)
	// must be rejected by the BDD check.
	nl := netlist.New("bad")
	var sels []netlist.ID
	for r := 0; r < 4; r++ {
		sels = append(sels, nl.AddInput("s"+string(rune('0'+r))))
	}
	for c := 0; c < 4; c++ {
		var taps []netlist.ID
		for r := 0; r < 4; r++ {
			cell := nl.AddLatch(nl.AddInput("d" + string(rune('0'+r)) + string(rune('0'+c))))
			taps = append(taps, nl.AddGate(netlist.And, sels[r], cell))
		}
		nl.MarkOutput("y"+string(rune('0'+c)), nl.AddGate(netlist.Or, taps...))
	}
	if mods := Find(nl); len(mods) != 0 {
		t.Errorf("non-one-hot plane accepted: %d modules", len(mods))
	}
}

func TestAsExtraPass(t *testing.T) {
	// Integration: the pass plugs into the portfolio via core.Options and
	// its module survives overlap resolution (it is the biggest module).
	nl, _ := gen.VGACore(8, 8)
	opt := core.Options{
		SkipModMatch: true,
		ExtraPasses: []func(*netlist.Netlist) []*module.Module{
			func(n *netlist.Netlist) []*module.Module { return Find(n) },
		},
	}
	rep := core.Analyze(nl, opt)
	found := false
	for _, m := range rep.Resolved {
		if m.Attr["kind"] == "or-and scan plane" {
			found = true
		}
	}
	if !found {
		t.Error("framebuffer module not in resolved output")
	}
	// Without the pass, coverage must be lower.
	repBase := core.Analyze(nl, core.Options{SkipModMatch: true})
	if rep.CoverageAfter <= repBase.CoverageAfter {
		t.Errorf("extra pass did not improve coverage: %d vs %d",
			rep.CoverageAfter, repBase.CoverageAfter)
	}
}
