package graph

import (
	"runtime"
	"testing"

	"netlistre/internal/gen"
	"netlistre/internal/netlist"
	"netlistre/internal/simplify"
)

func TestLCGEdges(t *testing.T) {
	nl := netlist.New("t")
	a := nl.AddInput("a")
	l1 := nl.AddLatch(a)
	g1 := nl.AddGate(netlist.Not, l1)
	l2 := nl.AddLatch(g1)
	l3 := nl.AddLatch(l2) // direct latch-to-latch
	g := BuildLCG(nl)
	if !g.HasEdge(l1, l2) || !g.HasSingleEdge(l1, l2) {
		t.Error("missing single edge l1->l2")
	}
	if !g.HasEdge(l2, l3) {
		t.Error("missing edge l2->l3 (direct connection)")
	}
	if g.HasEdge(l2, l1) || g.HasEdge(l3, l1) {
		t.Error("spurious backward edges")
	}
}

func TestLCGMultiPath(t *testing.T) {
	nl := netlist.New("t")
	a := nl.AddInput("a")
	l1 := nl.AddLatch(a)
	p1 := nl.AddGate(netlist.Not, l1)
	p2 := nl.AddGate(netlist.Buf, l1)
	m := nl.AddGate(netlist.And, p1, p2)
	l2 := nl.AddLatch(m)
	g := BuildLCG(nl)
	if !g.HasEdge(l1, l2) {
		t.Error("missing edge")
	}
	if g.HasSingleEdge(l1, l2) {
		t.Error("two paths must not be a single edge")
	}
}

// reconvergentCone builds a cone in which two paths run from latch l1 to
// latch l2, and the shared gate b also feeds c, a sibling of the root under
// it: a DFS that marks b when the root first pushes its fanins finishes c
// before b, and a path count over that order misses the path through c.
func reconvergentCone() *netlist.Netlist {
	nl := netlist.New("reconvergent")
	x := nl.AddInput("x")
	l1 := nl.AddLatch(x)
	b := nl.AddGate(netlist.Not, l1)
	c := nl.AddGate(netlist.And, b, x)
	nl.AddLatch(nl.AddGate(netlist.Or, b, c))
	return nl
}

// TestLCGPathCounts checks both edge relations against the netlist's own
// path counter on a hand-built reconvergent cone, every labeled article and
// simplified BigSoC: u -> v is an LCG edge iff CountCombPaths(u, v) > 0,
// and an SPLCG edge iff it is 1. Latch pairs without any combinational path
// are found by a forward walk from u, so CountCombPaths runs only on the
// reachable pairs.
func TestLCGPathCounts(t *testing.T) {
	names := append([]string{"reconvergent"}, gen.LabeledArticleNames()...)
	if !testing.Short() {
		names = append(names, "bigsoc")
	}
	for _, name := range names {
		var nl *netlist.Netlist
		switch name {
		case "reconvergent":
			nl = reconvergentCone()
		case "bigsoc":
			nl = simplify.Run(gen.BigSoC()).Netlist
		default:
			var err error
			if nl, _, err = gen.LabeledArticle(name); err != nil {
				t.Fatal(err)
			}
		}
		g := BuildLCG(nl)
		seen := make([]bool, nl.Len())
		reached := make([]bool, nl.Len())
		var bad, edges, single int
		for _, u := range g.Latches {
			clear(seen)
			clear(reached)
			stack := []netlist.ID{u}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, fo := range nl.Fanout(x) {
					switch {
					case nl.Kind(fo) == netlist.Latch:
						reached[fo] = true
					case nl.Kind(fo).IsGate() && !seen[fo]:
						seen[fo] = true
						stack = append(stack, fo)
					}
				}
			}
			for _, v := range g.Latches {
				want := 0
				if reached[v] {
					want = nl.CountCombPaths(u, v, 2)
					edges++
				}
				if want == 1 {
					single++
				}
				if g.HasEdge(u, v) != (want > 0) || g.HasSingleEdge(u, v) != (want == 1) {
					if bad++; bad <= 5 {
						t.Errorf("%s: %d -> %d: HasEdge %v, HasSingleEdge %v; CountCombPaths %d",
							name, u, v, g.HasEdge(u, v), g.HasSingleEdge(u, v), want)
					}
				}
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d latch pairs disagree with CountCombPaths", name, bad, len(g.Latches)*len(g.Latches))
		}
		if edges == single {
			t.Errorf("%s: %d LCG edges, all single-path; the case checks nothing about path counts", name, edges)
		}
	}
}

var benchLCG *LCG

// BenchmarkBuildLCG builds the latch connection graph of simplified BigSoC,
// the largest netlist the analysis runs on (1,873 latches).
func BenchmarkBuildLCG(b *testing.B) {
	nl := simplify.Run(gen.BigSoC()).Netlist
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchLCG = BuildLCG(nl)
	}
}

// TestLCGMemoryLinear builds the LCG of latch-heavy netlists, long shift
// registers with hold muxes, and runs both chain searches on it: the bytes
// allocated must grow linearly with the latch count, not with its square.
func TestLCGMemoryLinear(t *testing.T) {
	alloc := func(width int) uint64 {
		nl := netlist.New("shift")
		gen.ShiftRegister(nl, width, nl.AddInput("en"), nl.AddInput("rst"), nl.AddInput("sin"))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g := BuildLCG(nl)
		g.CounterChains(3)
		if chains := g.ShiftChains(3); len(chains) != 1 || len(chains[0]) != width {
			t.Fatalf("width %d: shift chains %d, want one of %d latches", width, len(chains), width)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := alloc(4000), alloc(16000)
	t.Logf("LCG allocation: %d B at 4,000 latches, %d B at 16,000", small, large)
	if large > 6*small {
		t.Errorf("4x the latches allocate %.1fx the bytes; want linear growth", float64(large)/float64(small))
	}
}

func TestCounterChainsOnRealCounter(t *testing.T) {
	nl := netlist.New("ctr")
	en := nl.AddInput("en")
	rst := nl.AddInput("rst")
	q := gen.Counter(nl, 6, en, rst, false)
	g := BuildLCG(nl)
	chains := g.CounterChains(2)
	if len(chains) != 1 {
		t.Fatalf("found %d chains, want 1: %v", len(chains), chains)
	}
	if len(chains[0]) != 6 {
		t.Fatalf("chain length = %d, want 6", len(chains[0]))
	}
	// The chain must be in counter bit order.
	for i, l := range chains[0] {
		if l != q[i] {
			t.Errorf("chain[%d] = %d, want %d", i, l, q[i])
		}
	}
}

func TestCounterChainsIgnoreShiftRegisters(t *testing.T) {
	nl := netlist.New("sh")
	en := nl.AddInput("en")
	rst := nl.AddInput("rst")
	sin := nl.AddInput("sin")
	gen.ShiftRegister(nl, 6, en, rst, sin)
	g := BuildLCG(nl)
	// Shift register bits have self-loops (hold muxes) but no full counter
	// triangle: bit j is fed only by bit j-1 and itself.
	for _, c := range g.CounterChains(2) {
		if len(c) > 2 {
			t.Errorf("shift register produced counter chain of length %d", len(c))
		}
	}
}

func TestShiftChainsOnRealShiftRegister(t *testing.T) {
	nl := netlist.New("sh")
	en := nl.AddInput("en")
	rst := nl.AddInput("rst")
	sin := nl.AddInput("sin")
	q := gen.ShiftRegister(nl, 5, en, rst, sin)
	g := BuildLCG(nl)
	chains := g.ShiftChains(2)
	if len(chains) != 1 {
		t.Fatalf("found %d chains, want 1: %v", len(chains), chains)
	}
	if len(chains[0]) != 5 {
		t.Fatalf("chain length = %d, want 5", len(chains[0]))
	}
	for i, l := range chains[0] {
		if l != q[i] {
			t.Errorf("chain[%d] = %d, want %d", i, l, q[i])
		}
	}
}

func TestShiftChainsParallel(t *testing.T) {
	// Two independent shift registers must yield two separate chains.
	nl := netlist.New("sh2")
	en := nl.AddInput("en")
	rst := nl.AddInput("rst")
	s1 := nl.AddInput("s1")
	s2 := nl.AddInput("s2")
	gen.ShiftRegister(nl, 4, en, rst, s1)
	gen.ShiftRegister(nl, 4, en, rst, s2)
	g := BuildLCG(nl)
	chains := g.ShiftChains(2)
	if len(chains) != 2 {
		t.Fatalf("found %d chains, want 2", len(chains))
	}
	for _, c := range chains {
		if len(c) != 4 {
			t.Errorf("chain length = %d, want 4", len(c))
		}
	}
}

func TestCounterChainOnMixedDesign(t *testing.T) {
	// A counter embedded next to a register file should still be found.
	nl := netlist.New("mix")
	en := nl.AddInput("en")
	rst := nl.AddInput("rst")
	q := gen.Counter(nl, 4, en, rst, false)
	waddr := gen.InputWord(nl, "wa", 2)
	raddr := gen.InputWord(nl, "ra", 2)
	wdata := gen.InputWord(nl, "wd", 4)
	we := nl.AddInput("we")
	gen.RegisterFile(nl, 4, 4, waddr, wdata, we, raddr)
	g := BuildLCG(nl)
	found := false
	for _, c := range g.CounterChains(3) {
		if len(c) == 4 && c[0] == q[0] {
			found = true
		}
	}
	if !found {
		t.Error("counter not found next to register file")
	}
}
