package cuts

import (
	"math/rand"
	"slices"
	"testing"

	"netlistre/internal/netlist"
	"netlistre/internal/truth"
)

func buildFullAdder() (*netlist.Netlist, netlist.ID, netlist.ID, [3]netlist.ID) {
	n := netlist.New("fa")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	// sum = a ^ b ^ c built from 2-input gates.
	ab := n.AddGate(netlist.Xor, a, b)
	sum := n.AddGate(netlist.Xor, ab, c)
	// carry = ab + bc + ca built as (a&b) | (c & (a^b)).
	and1 := n.AddGate(netlist.And, a, b)
	and2 := n.AddGate(netlist.And, c, ab)
	carry := n.AddGate(netlist.Or, and1, and2)
	return n, sum, carry, [3]netlist.ID{a, b, c}
}

func findCut(cs []Cut, leaves []netlist.ID) (Cut, bool) {
	for _, c := range cs {
		if slices.Equal(c.Leaves, leaves) {
			return c, true
		}
	}
	return Cut{}, false
}

func TestFullAdderCuts(t *testing.T) {
	n, sum, carry, in := buildFullAdder()
	sets := Enumerate(n, Options{})
	want := []netlist.ID{in[0], in[1], in[2]}

	sc, ok := findCut(sets[sum], want)
	if !ok {
		t.Fatalf("sum has no cut over primary inputs; cuts: %v", sets[sum])
	}
	// sum should be xor3 on the input leaves.
	xor3 := truth.Var(0, 3).Xor(truth.Var(1, 3)).Xor(truth.Var(2, 3))
	if sc.Table.Bits != xor3.Bits {
		t.Errorf("sum cut table = %v, want xor3 %v", sc.Table, xor3)
	}

	cc, ok := findCut(sets[carry], want)
	if !ok {
		t.Fatalf("carry has no cut over primary inputs")
	}
	a, b, c := truth.Var(0, 3), truth.Var(1, 3), truth.Var(2, 3)
	maj := a.And(b).Or(b.And(c)).Or(c.And(a))
	if cc.Table.Bits != maj.Bits {
		t.Errorf("carry cut table = %v, want maj %v", cc.Table, maj)
	}
}

func TestTrivialCutPresent(t *testing.T) {
	n, sum, _, _ := buildFullAdder()
	sets := Enumerate(n, Options{})
	if _, ok := findCut(sets[sum], []netlist.ID{sum}); !ok {
		t.Error("trivial cut missing")
	}
}

func TestCutRespectKLimit(t *testing.T) {
	n := netlist.New("wide")
	var ins []netlist.ID
	for i := 0; i < 8; i++ {
		ins = append(ins, n.AddInput(string(rune('a'+i))))
	}
	g := n.AddGate(netlist.And, ins...)
	for _, k := range []int{2, 4, 6} {
		sets := Enumerate(n, Options{K: k})
		for _, c := range sets[g] {
			if len(c.Leaves) > k {
				t.Errorf("K=%d: cut with %d leaves", k, len(c.Leaves))
			}
		}
		// The wide and-gate has no non-trivial k-feasible cut for k < 8.
		if len(sets[g]) != 1 {
			t.Errorf("K=%d: expected only trivial cut, got %d cuts", k, len(sets[g]))
		}
	}
}

// TestCutFunctionsMatchConeEvaluation is the core soundness property: the
// table attached to each cut must agree with concrete evaluation of the
// netlist for every assignment to the cut leaves.
func TestCutFunctionsMatchConeEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := randomComb(rng, 4+rng.Intn(3), 12+rng.Intn(12))
		sets := Enumerate(n, Options{})
		for id, cs := range sets {
			if !n.Kind(id).IsGate() {
				continue
			}
			for _, c := range cs {
				if len(c.Leaves) == 1 && c.Leaves[0] == id {
					continue // trivial
				}
				checkCut(t, n, id, c)
			}
		}
	}
}

// checkCut verifies c.Table against evaluation. Leaves are fixed per row;
// other boundary inputs get random values (they must not matter: a correct
// cut determines the root from its leaves alone).
func checkCut(t *testing.T, n *netlist.Netlist, root netlist.ID, c Cut) {
	t.Helper()
	for row := uint(0); row < 1<<uint(len(c.Leaves)); row++ {
		assign := make(map[netlist.ID]bool)
		for j, l := range c.Leaves {
			assign[l] = row>>uint(j)&1 == 1
		}
		// Leaves can be internal gates; force their cone inputs so the leaf
		// evaluates to the wanted value. Instead of solving for that, we
		// exploit Eval's boundary map only for inputs/latches, so restrict
		// checking to cuts whose leaves are all boundary nodes.
		allBoundary := true
		for _, l := range c.Leaves {
			if !n.Kind(l).IsConeInput() {
				allBoundary = false
				break
			}
		}
		if !allBoundary {
			return
		}
		vals := n.Eval(assign)
		if vals[root] != c.Table.Eval(row) {
			t.Fatalf("cut %v of node %d: row %d evaluates to %v, table says %v",
				c.Leaves, root, row, vals[root], c.Table.Eval(row))
		}
	}
}

func randomComb(rng *rand.Rand, nIn, nGates int) *netlist.Netlist {
	n := netlist.New("rand")
	var pool []netlist.ID
	for i := 0; i < nIn; i++ {
		pool = append(pool, n.AddInput(string(rune('a'+i))))
	}
	kinds := []netlist.Kind{netlist.And, netlist.Or, netlist.Nand, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not}
	for i := 0; i < nGates; i++ {
		k := kinds[rng.Intn(len(kinds))]
		if k == netlist.Not {
			pool = append(pool, n.AddGate(k, pool[rng.Intn(len(pool))]))
			continue
		}
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		pool = append(pool, n.AddGate(k, a, b))
	}
	return n
}

func TestAverageCutsPerGateBand(t *testing.T) {
	// On a reasonably-sized random circuit the average number of 6-feasible
	// cuts per gate should be in a plausible band (the paper reports 15-35
	// on synthesized designs; random circuits land lower but must exceed 1,
	// i.e. more than just trivial cuts).
	rng := rand.New(rand.NewSource(9))
	n := randomComb(rng, 8, 300)
	sets := Enumerate(n, Options{})
	avg := AverageCutsPerGate(n, sets)
	if avg <= 2 || avg > 64 {
		t.Errorf("average cuts per gate = %.1f, outside sanity band", avg)
	}
}

func TestDominancePruning(t *testing.T) {
	// y = (a & b) & (a & b)  -- the two identical subterms force duplicate
	// cuts that pruning must collapse.
	n := netlist.New("dup")
	a := n.AddInput("a")
	b := n.AddInput("b")
	g1 := n.AddGate(netlist.And, a, b)
	g2 := n.AddGate(netlist.And, g1, g1)
	sets := Enumerate(n, Options{})
	seen := make(map[string]bool)
	for _, c := range sets[g2] {
		key := ""
		for _, l := range c.Leaves {
			key += string(rune(l)) + ","
		}
		if seen[key] {
			t.Errorf("duplicate cut %v", c.Leaves)
		}
		seen[key] = true
	}
	// The {a,b} cut must exist and must not be accompanied by a dominated
	// {a,b,g1} cut.
	if _, ok := findCut(sets[g2], []netlist.ID{a, b}); !ok {
		t.Error("missing {a,b} cut")
	}
	if _, ok := findCut(sets[g2], []netlist.ID{a, b, g1}); ok {
		t.Error("dominated cut {a,b,g1} survived pruning")
	}
}
