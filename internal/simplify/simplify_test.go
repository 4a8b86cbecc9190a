package simplify

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"netlistre/internal/gen"
	"netlistre/internal/netlist"
)

func TestRemovesBuffersAndPairedInverters(t *testing.T) {
	nl := netlist.New("b")
	a := nl.AddInput("a")
	b1 := nl.AddGate(netlist.Buf, a)
	b2 := nl.AddGate(netlist.Buf, b1)
	n1 := nl.AddGate(netlist.Not, b2)
	n2 := nl.AddGate(netlist.Not, n1)
	g := nl.AddGate(netlist.And, n2, a)
	nl.MarkOutput("y", g)

	res := Run(nl)
	// Everything collapses: y = a & a — one gate.
	if got := res.Netlist.Stats().Gates; got != 1 {
		t.Errorf("gates = %d, want 1", got)
	}
	if res.NodeMap[b2] != res.NodeMap[a] {
		t.Error("buffer chain not collapsed onto a")
	}
	if res.NodeMap[n2] != res.NodeMap[a] {
		t.Error("paired inverters not collapsed")
	}
	if res.RemovedGates != 4 {
		t.Errorf("removed = %d, want 4", res.RemovedGates)
	}
}

func TestMergesStructurallyEquivalentGates(t *testing.T) {
	nl := netlist.New("m")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	g1 := nl.AddGate(netlist.And, a, b)
	g2 := nl.AddGate(netlist.And, b, a) // same gate, permuted inputs
	g3 := nl.AddGate(netlist.Or, g1, g2)
	nl.MarkOutput("y", g3)
	res := Run(nl)
	if res.NodeMap[g1] != res.NodeMap[g2] {
		t.Error("structurally equivalent gates not merged")
	}
	// or(x, x) remains structurally (semantic folding is out of scope),
	// so 2 gates survive: the and and the or.
	if got := res.Netlist.Stats().Gates; got != 2 {
		t.Errorf("gates = %d, want 2", got)
	}
}

func TestPreservesSequentialSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		nl := netlist.New("r")
		var pool []netlist.ID
		nIn := 4
		for i := 0; i < nIn; i++ {
			pool = append(pool, nl.AddInput(string(rune('a'+i))))
		}
		var latches []netlist.ID
		for i := 0; i < 3; i++ {
			l := nl.AddLatch(pool[rng.Intn(len(pool))])
			latches = append(latches, l)
			pool = append(pool, l)
		}
		kinds := []netlist.Kind{netlist.And, netlist.Or, netlist.Nand,
			netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf}
		for i := 0; i < 30; i++ {
			k := kinds[rng.Intn(len(kinds))]
			if k == netlist.Not || k == netlist.Buf {
				pool = append(pool, nl.AddGate(k, pool[rng.Intn(len(pool))]))
			} else {
				pool = append(pool, nl.AddGate(k, pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]))
			}
		}
		for _, l := range latches {
			nl.SetLatchD(l, pool[rng.Intn(len(pool))])
		}
		nl.MarkOutput("y", pool[len(pool)-1])

		res := Run(nl)
		if err := res.Netlist.Check(); err != nil {
			t.Fatalf("trial %d: simplified netlist invalid: %v", trial, err)
		}

		// Co-simulate for several cycles.
		inByName := func(n *netlist.Netlist) map[string]netlist.ID {
			m := make(map[string]netlist.ID)
			for _, in := range n.Inputs() {
				m[n.NameOf(in)] = in
			}
			return m
		}
		oIn, sIn := inByName(nl), inByName(res.Netlist)
		oSt, sSt := nl.NewState(), res.Netlist.NewState()
		for cycle := 0; cycle < 8; cycle++ {
			oAssign := map[netlist.ID]bool{}
			sAssign := map[netlist.ID]bool{}
			for name, oid := range oIn {
				v := rng.Intn(2) == 1
				oAssign[oid] = v
				sAssign[sIn[name]] = v
			}
			oOut := nl.OutputValues(nl.Step(oSt, oAssign))
			sOut := res.Netlist.OutputValues(res.Netlist.Step(sSt, sAssign))
			if oOut["y"] != sOut["y"] {
				t.Fatalf("trial %d cycle %d: output diverged", trial, cycle)
			}
		}
	}
}

func TestBigReductionOnBufferHeavyDesign(t *testing.T) {
	// Emulate BigSoC's electrical buffering: a real circuit wrapped in
	// buffers and paired inverters must shrink substantially (the paper
	// reports ~55%).
	nl := netlist.New("buffy")
	a := gen.InputWord(nl, "a", 8)
	b := gen.InputWord(nl, "b", 8)
	sum, _ := gen.RippleAdder(nl, a, b, netlist.Nil)
	for _, s := range sum {
		x := nl.AddGate(netlist.Buf, s)
		x = nl.AddGate(netlist.Buf, x)
		n := nl.AddGate(netlist.Not, x)
		nl.MarkOutput("y", nl.AddGate(netlist.Not, n))
	}
	before := nl.Stats().Gates
	res := Run(nl)
	after := res.Netlist.Stats().Gates
	if after >= before-20 {
		t.Errorf("reduction too small: %d -> %d", before, after)
	}
}

// randomFoldable builds a random sequential netlist that exercises every
// folding path: symmetric gates of 2 to 9 fanins, 1- to 6-input LUTs, both
// constants more than once, Buf and Not chains, latches fed back from the
// logic, and structural duplicates of earlier gates (fanins permuted for
// symmetric kinds, read through a buffer or an inverter pair) and twins
// that share a gate's fanins but not its kind or mask. It returns the
// netlist and the duplicate pairs.
func randomFoldable(rng *rand.Rand) (*netlist.Netlist, [][2]netlist.ID) {
	nl := netlist.New("fold")
	var pool, latches []netlist.ID
	for i := 0; i < 5; i++ {
		pool = append(pool, nl.AddInput(string(rune('a'+i))))
	}
	for i := 0; i < 3; i++ {
		l := nl.AddLatch(pool[rng.Intn(len(pool))]) // D rewired below
		latches = append(latches, l)
		pool = append(pool, l)
	}
	pool = append(pool, nl.AddConst(false), nl.AddConst(true), nl.AddConst(false))
	pick := func() netlist.ID {
		if lo := len(pool) - 12; lo > 0 && rng.Intn(3) > 0 {
			return pool[lo+rng.Intn(len(pool)-lo)] // deepen the cones
		}
		return pool[rng.Intn(len(pool))]
	}
	symmetric := []netlist.Kind{netlist.And, netlist.Or, netlist.Nand,
		netlist.Nor, netlist.Xor, netlist.Xnor}
	var gates, dups []netlist.ID
	var pairs [][2]netlist.ID
	for i := 0; i < 80; i++ {
		var g netlist.ID
		switch r := rng.Intn(10); {
		case r < 2 && len(gates) > 0: // duplicate an earlier gate
			orig := gates[rng.Intn(len(gates))]
			node := nl.Node(orig)
			fan := append([]netlist.ID(nil), node.Fanin...)
			if node.Kind != netlist.Lut {
				rng.Shuffle(len(fan), func(i, j int) { fan[i], fan[j] = fan[j], fan[i] })
			}
			j := rng.Intn(len(fan))
			if rng.Intn(2) == 0 {
				fan[j] = nl.AddGate(netlist.Buf, fan[j])
			} else {
				fan[j] = nl.AddGate(netlist.Not, nl.AddGate(netlist.Not, fan[j]))
			}
			g = nl.AddGateLike(node, fan...)
			dups = append(dups, g)
			pairs = append(pairs, [2]netlist.ID{orig, g})
		case r < 3 && len(gates) > 0: // same fanins, another kind or mask
			node := nl.Node(gates[rng.Intn(len(gates))])
			if node.Kind == netlist.Lut {
				g = nl.AddLut(node.Mask^1, node.Fanin...)
			} else {
				g = nl.AddGate(symmetric[(slices.Index(symmetric, node.Kind)+1+rng.Intn(5))%6], node.Fanin...)
			}
			dups = append(dups, g)
		case r < 4: // Buf/Not chain
			g = pick()
			for n := 1 + rng.Intn(4); n > 0; n-- {
				g = nl.AddGate([]netlist.Kind{netlist.Buf, netlist.Not}[rng.Intn(2)], g)
			}
		case r < 6:
			k := 1 + rng.Intn(netlist.MaxLutInputs)
			fan := make([]netlist.ID, k)
			for j := range fan {
				fan[j] = pick()
			}
			g = nl.AddLut(rng.Uint64()&(^uint64(0)>>(64-(1<<uint(k)))), fan...)
			gates = append(gates, g)
		default:
			fan := make([]netlist.ID, 2+rng.Intn(8))
			for j := range fan {
				fan[j] = pick()
			}
			g = nl.AddGate(symmetric[rng.Intn(len(symmetric))], fan...)
			gates = append(gates, g)
		}
		pool = append(pool, g)
	}
	for _, l := range latches {
		nl.SetLatchD(l, pick())
	}
	for i := 0; i < 4; i++ {
		nl.MarkOutput(string(rune('w'+i)), pick())
	}
	nl.MarkOutput("last", pool[len(pool)-1])
	for _, d := range dups {
		nl.MarkOutput(nl.NameOf(d), d) // keep every duplicate's and twin's image live
	}
	return nl, pairs
}

// simulate runs nl for cycles clock cycles on 64 lanes from all-zero
// latches; inputs[c][name] is input name's word in cycle c. It returns
// every node's settled word per cycle.
func simulate(nl *netlist.Netlist, inputs []map[string]uint64) [][]uint64 {
	order := nl.TopoOrder()
	state := make([]uint64, nl.Len())
	var trace [][]uint64
	for _, in := range inputs {
		vals := make([]uint64, nl.Len())
		var buf []uint64
		for _, id := range order {
			node := nl.Node(id)
			switch node.Kind {
			case netlist.Input:
				vals[id] = in[node.Name]
			case netlist.Latch:
				vals[id] = state[id]
			default:
				buf = buf[:0]
				for _, f := range node.Fanin {
					buf = append(buf, vals[f])
				}
				vals[id] = netlist.EvalWord(node.Kind, node.Mask, buf)
			}
		}
		for _, l := range nl.Latches() {
			state[l] = vals[nl.Fanin(l)[0]]
		}
		trace = append(trace, vals)
	}
	return trace
}

// TestRandomNetlistsKeepEveryValue simplifies random netlists and checks,
// over eight clock cycles of 64 random lanes, that every original node with
// an image computes the same words as its image, that every node driving
// an output or a latch has one, that structural duplicates share one, and
// that the result has no buffer, no inverter pair and no two structurally
// equal gates left.
func TestRandomNetlistsKeepEveryValue(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		nl, pairs := randomFoldable(rng)
		res := Run(nl)
		out := res.Netlist
		if err := out.Check(); err != nil {
			t.Fatalf("trial %d: simplified netlist invalid: %v", trial, err)
		}
		if len(res.NodeMap) != nl.Len() {
			t.Fatalf("trial %d: NodeMap has %d entries for %d nodes", trial, len(res.NodeMap), nl.Len())
		}
		inputs := make([]map[string]uint64, 8)
		for c := range inputs {
			inputs[c] = make(map[string]uint64)
			for _, in := range nl.Inputs() {
				inputs[c][nl.NameOf(in)] = rng.Uint64()
			}
		}
		want, got := simulate(nl, inputs), simulate(out, inputs)
		for id := netlist.ID(0); int(id) < nl.Len(); id++ {
			img := res.NodeMap[id]
			if img == netlist.Nil {
				continue
			}
			for c := range inputs {
				if want[c][id] != got[c][img] {
					t.Fatalf("trial %d: node %d (%v) and its image %d differ in cycle %d",
						trial, id, nl.Kind(id), img, c)
				}
			}
		}
		needed := nl.Latches()
		for _, l := range nl.Latches() {
			needed = append(needed, nl.Fanin(l)[0])
		}
		for _, p := range nl.Outputs() {
			needed = append(needed, p.Driver)
		}
		for _, id := range needed {
			if res.NodeMap[id] == netlist.Nil {
				t.Fatalf("trial %d: node %d is needed but has no image", trial, id)
			}
		}
		for _, p := range pairs {
			if res.NodeMap[p[0]] != res.NodeMap[p[1]] {
				t.Fatalf("trial %d: duplicate gates %d and %d map to %d and %d",
					trial, p[0], p[1], res.NodeMap[p[0]], res.NodeMap[p[1]])
			}
		}
		seen := make(map[string]netlist.ID)
		for _, id := range out.Gates() {
			node := out.Node(id)
			if node.Kind == netlist.Buf {
				t.Fatalf("trial %d: buffer %d survived", trial, id)
			}
			if node.Kind == netlist.Not && out.Kind(node.Fanin[0]) == netlist.Not {
				t.Fatalf("trial %d: inverter pair at %d survived", trial, id)
			}
			fan := append([]netlist.ID(nil), node.Fanin...)
			if node.Kind != netlist.Lut {
				slices.Sort(fan)
			}
			key := fmt.Sprint(node.Kind, node.Mask, fan)
			if prev, ok := seen[key]; ok {
				t.Fatalf("trial %d: gates %d and %d are structurally equal", trial, prev, id)
			}
			seen[key] = id
		}
	}
}
