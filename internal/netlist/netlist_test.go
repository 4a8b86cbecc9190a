package netlist

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildFullAdder returns a netlist computing sum and carry of three inputs.
func buildFullAdder() (*Netlist, ID, ID, [3]ID) {
	n := New("fa")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	sum := n.AddGate(Xor, a, b, c)
	ab := n.AddGate(And, a, b)
	bc := n.AddGate(And, b, c)
	ca := n.AddGate(And, c, a)
	carry := n.AddGate(Or, ab, bc, ca)
	n.MarkOutput("sum", sum)
	n.MarkOutput("carry", carry)
	return n, sum, carry, [3]ID{a, b, c}
}

func TestFullAdderEval(t *testing.T) {
	n, sum, carry, in := buildFullAdder()
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 8; m++ {
		a, b, c := m&1 != 0, m&2 != 0, m&4 != 0
		vals := n.Eval(map[ID]bool{in[0]: a, in[1]: b, in[2]: c})
		cnt := 0
		for _, v := range []bool{a, b, c} {
			if v {
				cnt++
			}
		}
		if got, want := vals[sum], cnt%2 == 1; got != want {
			t.Errorf("sum(%v,%v,%v) = %v, want %v", a, b, c, got, want)
		}
		if got, want := vals[carry], cnt >= 2; got != want {
			t.Errorf("carry(%v,%v,%v) = %v, want %v", a, b, c, got, want)
		}
	}
}

func TestStats(t *testing.T) {
	n, _, _, _ := buildFullAdder()
	s := n.Stats()
	if s.Inputs != 3 || s.Outputs != 2 || s.Gates != 5 || s.Latches != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestFanout(t *testing.T) {
	n := New("t")
	a := n.AddInput("a")
	b := n.AddInput("b")
	g1 := n.AddGate(And, a, b)
	g2 := n.AddGate(Or, a, g1)
	fo := n.Fanout(a)
	if len(fo) != 2 || fo[0] != g1 || fo[1] != g2 {
		t.Errorf("fanout(a) = %v", fo)
	}
	if len(n.Fanout(g2)) != 0 {
		t.Errorf("fanout(g2) = %v", n.Fanout(g2))
	}
}

func TestConeOf(t *testing.T) {
	n := New("t")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	l := n.AddLatch(c)
	g1 := n.AddGate(And, a, b)
	g2 := n.AddGate(Xor, g1, l)
	cone := n.ConeOf(g2)
	wantInputs := []ID{a, b, l}
	if len(cone.Inputs) != 3 {
		t.Fatalf("cone inputs = %v, want %v", cone.Inputs, wantInputs)
	}
	for i, id := range wantInputs {
		if cone.Inputs[i] != id {
			t.Errorf("cone.Inputs[%d] = %d, want %d", i, cone.Inputs[i], id)
		}
	}
	if len(cone.Nodes) != 2 {
		t.Errorf("cone nodes = %v, want {g1,g2}", cone.Nodes)
	}
}

func TestConeOfLatchRoot(t *testing.T) {
	n := New("t")
	a := n.AddInput("a")
	l := n.AddLatch(a)
	cone := n.ConeOf(l)
	if len(cone.Inputs) != 1 || cone.Inputs[0] != l {
		t.Errorf("cone of latch root = %+v", cone)
	}
	if len(cone.Nodes) != 0 {
		t.Errorf("latch root cone has nodes %v", cone.Nodes)
	}
}

func TestTopoOrder(t *testing.T) {
	n, _, _, _ := buildFullAdder()
	order := n.TopoOrder()
	if len(order) != n.Len() {
		t.Fatalf("topo order has %d nodes, want %d", len(order), n.Len())
	}
	pos := make(map[ID]int)
	for i, id := range order {
		pos[id] = i
	}
	for i := 0; i < n.Len(); i++ {
		id := ID(i)
		if !n.Kind(id).IsGate() {
			continue
		}
		for _, f := range n.Fanin(id) {
			if pos[f] > pos[id] {
				t.Errorf("fanin %d of %d comes after it in topo order", f, id)
			}
		}
	}
}

func TestCountCombPaths(t *testing.T) {
	n := New("t")
	a := n.AddInput("a")
	l1 := n.AddLatch(a)
	g1 := n.AddGate(Not, l1)
	g2 := n.AddGate(Buf, l1)
	g3 := n.AddGate(And, g1, g2)
	l2 := n.AddLatch(g3)
	if got := n.CountCombPaths(l1, l2, 10); got != 2 {
		t.Errorf("paths l1->l2 = %d, want 2", got)
	}
	if got := n.CountCombPaths(l1, l2, 1); got != 1 {
		t.Errorf("saturated paths = %d, want 1", got)
	}
	if got := n.CountCombPaths(l2, l1, 10); got != 0 {
		t.Errorf("paths l2->l1 = %d, want 0", got)
	}
}

func TestCheckDetectsCycle(t *testing.T) {
	n := New("t")
	a := n.AddInput("a")
	g1 := n.AddGate(And, a, a) // placeholder fanin
	g2 := n.AddGate(Or, g1, a)
	// Introduce a cycle g1 <- g2 by surgery (not possible via public API,
	// which is the point of Check).
	n.nodes[g1].Fanin[1] = g2
	if err := n.Check(); err == nil {
		t.Error("Check did not detect combinational cycle")
	}
}

func TestLatchFeedbackIsNotCycle(t *testing.T) {
	n := New("t")
	en := n.AddInput("en")
	l := n.AddLatch(en) // temporary
	inv := n.AddGate(Not, l)
	d := n.AddGate(And, en, inv)
	n.SetLatchD(l, d)
	if err := n.Check(); err != nil {
		t.Errorf("latch feedback flagged as cycle: %v", err)
	}
	// Toggle behaviour: with en=1 the latch toggles each step.
	st := n.NewState()
	inp := map[ID]bool{en: true}
	n.Step(st, inp)
	if !st[l] {
		t.Error("latch should be 1 after first step")
	}
	n.Step(st, inp)
	if st[l] {
		t.Error("latch should toggle back to 0")
	}
}

func TestSetLatchDUpdatesFanout(t *testing.T) {
	n := New("t")
	a := n.AddInput("a")
	b := n.AddInput("b")
	l := n.AddLatch(a)
	n.SetLatchD(l, b)
	if len(n.Fanout(a)) != 0 {
		t.Errorf("stale fanout on a: %v", n.Fanout(a))
	}
	if len(n.Fanout(b)) != 1 || n.Fanout(b)[0] != l {
		t.Errorf("fanout(b) = %v", n.Fanout(b))
	}
}

// randomNetlist builds a random combinational+sequential netlist for
// round-trip and semantics-preservation property tests.
func randomNetlist(rng *rand.Rand, nIn, nGates, nLatches int) *Netlist {
	n := New("rand")
	var pool []ID
	for i := 0; i < nIn; i++ {
		pool = append(pool, n.AddInput(randName(rng, i)))
	}
	var latches []ID
	for i := 0; i < nLatches; i++ {
		l := n.AddLatch(pool[rng.Intn(len(pool))])
		latches = append(latches, l)
		pool = append(pool, l)
	}
	kinds := []Kind{And, Or, Nand, Nor, Xor, Xnor, Not, Buf, Lut}
	for i := 0; i < nGates; i++ {
		k := kinds[rng.Intn(len(kinds))]
		var id ID
		switch {
		case k == Lut:
			arity := 1 + rng.Intn(MaxLutInputs)
			fan := make([]ID, arity)
			for j := range fan {
				fan[j] = pool[rng.Intn(len(pool))]
			}
			mask := rng.Uint64()
			if arity < MaxLutInputs {
				mask &= 1<<(1<<uint(arity)) - 1
			}
			id = n.AddLut(mask, fan...)
		case k == Not || k == Buf:
			id = n.AddGate(k, pool[rng.Intn(len(pool))])
		default:
			arity := 2 + rng.Intn(3)
			fan := make([]ID, arity)
			for j := range fan {
				fan[j] = pool[rng.Intn(len(pool))]
			}
			id = n.AddGate(k, fan...)
		}
		pool = append(pool, id)
	}
	for i, l := range latches {
		n.SetLatchD(l, pool[rng.Intn(len(pool))])
		_ = i
	}
	n.MarkOutput("y", pool[len(pool)-1])
	return n
}

func randName(rng *rand.Rand, i int) string {
	letters := "abcdefghijklmnopqrstuvwxyz"
	return string(letters[i%26]) + string(letters[rng.Intn(26)]) + string(rune('0'+i%10))
}

func TestVerilogRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		orig := randomNetlist(rng, 3+rng.Intn(4), 5+rng.Intn(20), rng.Intn(4))
		if err := orig.Check(); err != nil {
			t.Fatalf("trial %d: bad random netlist: %v", trial, err)
		}
		var buf bytes.Buffer
		if err := orig.WriteVerilog(&buf); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		got, err := ReadVerilog(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: read: %v\n%s", trial, err, buf.String())
		}
		if err := got.Check(); err != nil {
			t.Fatalf("trial %d: parsed netlist invalid: %v", trial, err)
		}
		if gs, os := got.Stats(), orig.Stats(); gs.Inputs != os.Inputs ||
			gs.Latches != os.Latches || gs.Outputs != os.Outputs {
			t.Fatalf("trial %d: stats changed: %+v -> %+v", trial, os, gs)
		}
		// Semantic equivalence: simulate both for several cycles with the
		// same input sequences (matching inputs by name) and compare
		// outputs by name.
		inByName := func(nl *Netlist) map[string]ID {
			m := make(map[string]ID)
			for _, in := range nl.Inputs() {
				m[nl.NameOf(in)] = in
			}
			return m
		}
		oIn, gIn := inByName(orig), inByName(got)
		oSt, gSt := orig.NewState(), got.NewState()
		for cycle := 0; cycle < 6; cycle++ {
			oAssign := make(map[ID]bool)
			gAssign := make(map[ID]bool)
			for name, oid := range oIn {
				v := rng.Intn(2) == 1
				oAssign[oid] = v
				gid, ok := gIn[name]
				if !ok {
					t.Fatalf("trial %d: input %q lost in round trip", trial, name)
				}
				gAssign[gid] = v
			}
			oOut := orig.OutputValues(orig.Step(oSt, oAssign))
			gOut := got.OutputValues(got.Step(gSt, gAssign))
			for name, ov := range oOut {
				if gv, ok := gOut[name]; !ok || gv != ov {
					t.Fatalf("trial %d cycle %d: output %q = %v, want %v",
						trial, cycle, name, gv, ov)
				}
			}
		}
	}
}

func TestVerilogWriterOutput(t *testing.T) {
	n, _, _, _ := buildFullAdder()
	var buf bytes.Buffer
	if err := n.WriteVerilog(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"module fa", "input a;", "output sum;", "xor", "endmodule"} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Errorf("verilog output missing %q:\n%s", want, text)
		}
	}
}

func TestEvalWordProperty(t *testing.T) {
	// Property: De Morgan duality between And/Nand and Or/Nor under input
	// inversion, lane by lane over 64 random lanes.
	f := func(a, b, c uint64) bool {
		in := []uint64{a, b, c}
		ninv := []uint64{^a, ^b, ^c}
		if EvalWord(Nand, 0, in) != ^EvalWord(And, 0, in) {
			return false
		}
		if EvalWord(Nor, 0, in) != ^EvalWord(Or, 0, in) {
			return false
		}
		if EvalWord(And, 0, in) != ^EvalWord(Or, 0, ninv) {
			return false
		}
		return EvalWord(Xnor, 0, in) == ^EvalWord(Xor, 0, in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
