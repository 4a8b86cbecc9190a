package bitsim

// Differential tests pinning the bit-parallel engine to a scalar reference
// simulator of the five-valued D-calculus: lane packing must be exact on
// {0, 1, X} assignments, the pair encoding must equal the D-calculus at
// every node (X included), and a cone evaluated on projection patterns must
// reproduce the truth tables the cut enumerator computes structurally.

import (
	"math/rand"
	"testing"

	"netlistre/internal/cuts"
	"netlistre/internal/netlist"
	"netlistre/internal/truth"
)

// value is a five-valued signal level of the reference simulator.
type value uint8

const (
	zero value = iota
	one
	symD    // the symbolic value D
	symDBar // its complement D̄
	unknown // X
)

var valueNames = [...]string{"0", "1", "D", "D̄", "X"}

func (v value) String() string { return valueNames[v] }

func not5(v value) value {
	switch v {
	case zero:
		return one
	case one:
		return zero
	case symD:
		return symDBar
	case symDBar:
		return symD
	}
	return unknown
}

// and5 folds the five-valued conjunction: a 0 or a D & D̄ pair forces 0
// whatever X is elsewhere.
func and5(vs ...value) value {
	anyX, hasD, hasDBar := false, false, false
	for _, v := range vs {
		switch v {
		case zero:
			return zero
		case unknown:
			anyX = true
		case symD:
			hasD = true
		case symDBar:
			hasDBar = true
		}
	}
	switch {
	case hasD && hasDBar:
		return zero
	case anyX:
		return unknown
	case hasD:
		return symD
	case hasDBar:
		return symDBar
	}
	return one
}

func or5(vs ...value) value {
	in := make([]value, len(vs))
	for i, v := range vs {
		in[i] = not5(v)
	}
	return not5(and5(in...))
}

func xor5(vs ...value) value {
	base, symbolic := false, false
	for _, v := range vs {
		switch v {
		case unknown:
			return unknown
		case one:
			base = !base
		case symD:
			symbolic = !symbolic
		case symDBar:
			symbolic, base = !symbolic, !base
		}
	}
	switch {
	case !symbolic && base:
		return one
	case !symbolic:
		return zero
	case base:
		return symDBar
	}
	return symD
}

func evalGate5(kind netlist.Kind, in []value) value {
	switch kind {
	case netlist.Const0:
		return zero
	case netlist.Const1:
		return one
	case netlist.Not:
		return not5(in[0])
	case netlist.Buf:
		return in[0]
	case netlist.And:
		return and5(in...)
	case netlist.Nand:
		return not5(and5(in...))
	case netlist.Or:
		return or5(in...)
	case netlist.Nor:
		return not5(or5(in...))
	case netlist.Xor:
		return xor5(in...)
	case netlist.Xnor:
		return not5(xor5(in...))
	}
	panic("evalGate5 on " + kind.String())
}

// evalLut5 expands the symbol both ways and enumerates the X inputs
// exhaustively: the output is definite only when each expansion is, and
// symbolic when the two differ.
func evalLut5(mask uint64, in []value) value {
	eval3 := func(d bool) value {
		row, xmask := uint(0), uint(0)
		for i, v := range in {
			if v == unknown {
				xmask |= 1 << uint(i)
			} else if v == one || v == symD && d || v == symDBar && !d {
				row |= 1 << uint(i)
			}
		}
		seen0, seen1 := false, false
		for sub := xmask; ; sub = (sub - 1) & xmask {
			if mask>>(row|sub)&1 == 1 {
				seen1 = true
			} else {
				seen0 = true
			}
			if sub == 0 {
				break
			}
		}
		switch {
		case seen0 && seen1:
			return unknown
		case seen1:
			return one
		}
		return zero
	}
	v0, v1 := eval3(false), eval3(true)
	switch {
	case v0 == unknown || v1 == unknown:
		return unknown
	case v0 == v1:
		return v0
	case v0 == zero:
		return symD
	}
	return symDBar
}

// run5 is the scalar reference: the whole netlist in topological order,
// assigned nodes cut loose, unassigned cone inputs X.
func run5(nl *netlist.Netlist, assign map[netlist.ID]value) []value {
	vals := make([]value, nl.Len())
	for _, id := range nl.TopoOrder() {
		if v, ok := assign[id]; ok {
			vals[id] = v
			continue
		}
		node := nl.Node(id)
		if node.Kind.IsConeInput() {
			vals[id] = unknown
			continue
		}
		in := make([]value, len(node.Fanin))
		for i, f := range node.Fanin {
			in[i] = vals[f]
		}
		if node.Kind == netlist.Lut {
			vals[id] = evalLut5(node.Mask, in)
		} else {
			vals[id] = evalGate5(node.Kind, in)
		}
	}
	return vals
}

// pairOf encodes v in every pair; setPair writes v into pair k only.
func pairOf(v value) Vector {
	switch v {
	case zero:
		return Known(0)
	case one:
		return Known(^uint64(0))
	case symD:
		return PairD()
	case symDBar:
		return PairD().Not()
	}
	return Unknown()
}

func setPair(vec Vector, k int, v value) Vector {
	lanes := uint64(3) << uint(2*k)
	p := pairOf(v)
	return Vector{Val: vec.Val&^lanes | p.Val&lanes, Unk: vec.Unk&^lanes | p.Unk&lanes}
}

func pairValue(vec Vector, k int) value {
	s := vec.PairString(k)
	for v, name := range valueNames {
		if name == s {
			return value(v)
		}
	}
	panic("unknown pair rendering " + s)
}

// randNetlist builds a random DAG of gates and 2-4 input LUT cells over nIn
// inputs, with a couple of latches mixed in so cone-input handling is
// exercised.
func randNetlist(rng *rand.Rand, nIn, nGates int) *netlist.Netlist {
	nl := netlist.New("rand")
	pool := make([]netlist.ID, 0, nIn+nGates)
	for i := 0; i < nIn; i++ {
		pool = append(pool, nl.AddInput("in"+string(rune('a'+i))))
	}
	kinds := []netlist.Kind{
		netlist.And, netlist.Or, netlist.Nand, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf, netlist.Lut,
	}
	pick := func(n int) []netlist.ID {
		ins := make([]netlist.ID, n)
		for i := range ins {
			ins[i] = pool[rng.Intn(len(pool))]
		}
		return ins
	}
	for g := 0; g < nGates; g++ {
		var id netlist.ID
		switch k := kinds[rng.Intn(len(kinds))]; k {
		case netlist.Not, netlist.Buf:
			id = nl.AddGate(k, pick(1)...)
		case netlist.Lut:
			n := 2 + rng.Intn(3)
			id = nl.AddLut(rng.Uint64()&(uint64(1)<<(uint(1)<<uint(n))-1), pick(n)...)
		default:
			id = nl.AddGate(k, pick(2+rng.Intn(2))...)
		}
		if rng.Intn(12) == 0 {
			id = nl.AddLatch(id)
		}
		pool = append(pool, id)
	}
	return nl
}

// packAssign converts 64 scalar {0,1,X} assignments into one vector
// assignment (lane i carries scalar assignment i).
// compileAssigned compiles the cone of roots with the nodes of assign cut
// loose and forced to their assigned vectors.
func compileAssigned(nl *netlist.Netlist, roots []netlist.ID, assign map[netlist.ID]Vector) *Cone {
	cut := make([]netlist.ID, 0, len(assign))
	for id := range assign {
		cut = append(cut, id)
	}
	c := CompileCone(nl, roots, cut)
	for id, v := range assign {
		c.Force(id, v)
	}
	return c
}

func packAssign(scalar [Lanes]map[netlist.ID]value) map[netlist.ID]Vector {
	packed := make(map[netlist.ID]Vector)
	for lane := 0; lane < Lanes; lane++ {
		for id, v := range scalar[lane] {
			vec := packed[id]
			switch v {
			case one:
				vec.Val |= 1 << uint(lane)
			case unknown:
				vec.Unk |= 1 << uint(lane)
			}
			packed[id] = vec
		}
	}
	return packed
}

// TestRunMatchesScalarSim: one independent-lane Eval of a cone rooted at
// every node, over 64 packed {0,1,X} assignments, must equal 64 scalar
// reference runs lane for lane, on every node. On the three-valued
// subdomain the two engines implement the same Kleene algebra, so equality
// is exact — including X propagation.
func TestRunMatchesScalarSim(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	three := []value{zero, one, unknown}
	for trial := 0; trial < trials; trial++ {
		nl := randNetlist(rng, 3+rng.Intn(4), 10+rng.Intn(40))
		// Assign every cone input plus a few random internal nodes (the
		// cut-loose semantics both engines share).
		var targets []netlist.ID
		for id := netlist.ID(0); int(id) < nl.Len(); id++ {
			if nl.Kind(id).IsConeInput() || rng.Intn(8) == 0 {
				targets = append(targets, id)
			}
		}
		// Every target is assigned in every lane: the assignment key set
		// must be lane-independent for the packing to be faithful.
		var scalar [Lanes]map[netlist.ID]value
		for lane := range scalar {
			scalar[lane] = make(map[netlist.ID]value, len(targets))
			for _, id := range targets {
				scalar[lane][id] = three[rng.Intn(3)]
			}
		}
		all := make([]netlist.ID, nl.Len())
		for id := range all {
			all[id] = netlist.ID(id)
		}
		got := compileAssigned(nl, all, packAssign(scalar)).Eval()
		for lane := 0; lane < Lanes; lane++ {
			want := run5(nl, scalar[lane])
			for id := range all {
				val, known := got[id].Get(lane)
				ok := false
				switch want[id] {
				case zero:
					ok = known && !val
				case one:
					ok = known && val
				case unknown:
					ok = !known
				}
				if !ok {
					t.Fatalf("trial %d node %d lane %d: reference=%v bitsim=(%v,%v)",
						trial, id, lane, want[id], val, known)
				}
			}
		}
	}
}

// TestRunPairEncodingD: a cone rooted at every node, in EvalPairs, with Pairs independent
// five-valued assignments and per-pair forces, must equal the scalar
// D-calculus reference pair for pair at every node — X included. Forcing a
// node in one pair is assigning it in that pair's reference run.
func TestRunPairEncodingD(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	five := []value{zero, one, symD, symDBar, unknown}
	trials := 120
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		nl := randNetlist(rng, 3+rng.Intn(4), 10+rng.Intn(40))
		var all, leaves []netlist.ID
		for id := netlist.ID(0); int(id) < nl.Len(); id++ {
			all = append(all, id)
			if nl.Kind(id).IsConeInput() && rng.Intn(4) != 0 || rng.Intn(8) == 0 {
				leaves = append(leaves, id)
			}
		}
		var scalar [Pairs]map[netlist.ID]value
		assign := make(map[netlist.ID]Vector, len(leaves))
		for k := range scalar {
			scalar[k] = make(map[netlist.ID]value)
			for _, id := range leaves {
				v := five[rng.Intn(5)]
				scalar[k][id] = v
				assign[id] = setPair(assign[id], k, v)
			}
		}
		cone := compileAssigned(nl, all, assign)
		for _, id := range all {
			if rng.Intn(10) != 0 {
				continue
			}
			// A leaf's force replaces its assigned vector, so the pairs
			// left unforced keep the assigned values.
			force, ok := assign[id]
			if !ok {
				force = Unknown()
			}
			for k := range scalar {
				if rng.Intn(3) == 0 {
					v := five[rng.Intn(4)] // X cannot be forced
					scalar[k][id] = v
					force = setPair(force, k, v)
				}
			}
			cone.Force(id, force)
		}
		got := cone.EvalPairs()
		for k := range scalar {
			want := run5(nl, scalar[k])
			for i, id := range all {
				if g := pairValue(got[i], k); g != want[id] {
					t.Fatalf("trial %d node %d (%v) pair %d: reference=%v pair=%v",
						trial, id, nl.Kind(id), k, want[id], g)
				}
			}
		}
	}
}

// TestConeStopsAtAssigned: an assigned node is cut loose from its logic,
// so forcing its fan-in changes nothing, while forcing the node itself
// overrides its assigned value.
func TestConeStopsAtAssigned(t *testing.T) {
	nl := netlist.New("cut")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	g := nl.AddGate(netlist.And, a, b)
	h := nl.AddGate(netlist.Not, g)
	cone := CompileCone(nl, []netlist.ID{h}, []netlist.ID{g})
	cone.Force(g, PairD())
	cone.Force(a, Known(0))
	if got := cone.EvalPairs()[0].PairString(7); got != "D̄" {
		t.Errorf("not(D) with a forced behind the cut = %s, want D̄", got)
	}
	cone.Force(g, Known(^uint64(0)))
	if got := cone.EvalPairs()[0].PairString(7); got != "0" {
		t.Errorf("not(forced 1) = %s, want 0", got)
	}
}

// pairGate evaluates one gate on five-valued inputs through the pair
// encoding, collapse included.
func pairGate(kind netlist.Kind, in ...value) value {
	vecs := make([]Vector, len(in))
	for i, v := range in {
		vecs[i] = pairOf(v)
	}
	return pairValue(EvalGate(kind, vecs).collapse(), 0)
}

func TestPaperExamples(t *testing.T) {
	// The exact examples given in Section II-C.1 of the paper.
	cases := []struct {
		name      string
		got, want value
	}{
		{"and(D,1)", pairGate(netlist.And, symD, one), symD},
		{"and(D,0)", pairGate(netlist.And, symD, zero), zero},
		{"and(0,X)", pairGate(netlist.And, zero, unknown), zero},
		{"not(X)", pairGate(netlist.Not, unknown), unknown},
		{"not(D)", pairGate(netlist.Not, symD), symDBar},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestSymbolConsistency(t *testing.T) {
	cases := []struct {
		name string
		kind netlist.Kind
		in   []value
		want value
	}{
		// D and D̄ refer to the SAME symbol.
		{"D & D̄", netlist.And, []value{symD, symDBar}, zero},
		{"D | D̄", netlist.Or, []value{symD, symDBar}, one},
		{"D ^ D̄", netlist.Xor, []value{symD, symDBar}, one},
		{"D ^ D", netlist.Xor, []value{symD, symD}, zero},
		// X absorbs when the symbol cannot force the result: the rails
		// are (0,X) or (X,1), and the collapse widens them to X.
		{"D & X", netlist.And, []value{symD, unknown}, unknown},
		{"D | X", netlist.Or, []value{symD, unknown}, unknown},
		{"D ^ X", netlist.Xor, []value{symD, unknown}, unknown},
		// ...but D & D̄ dominates X: the product is 0 whatever X is.
		{"D & D̄ & X", netlist.And, []value{symD, symDBar, unknown}, zero},
		{"D | D̄ | X", netlist.Or, []value{symD, symDBar, unknown}, one},
	}
	for _, c := range cases {
		if got := pairGate(c.kind, c.in...); got != c.want {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestXorChainParity(t *testing.T) {
	cases := []struct {
		in   []value
		want value
	}{
		{[]value{symD, symD, symD}, symD},
		{[]value{symD, symDBar, one}, zero},
		{[]value{symDBar, symDBar}, zero},
		{[]value{symDBar, one}, symD},
	}
	for _, c := range cases {
		if got := pairGate(netlist.Xor, c.in...); got != c.want {
			t.Errorf("xor%v = %v, want %v", c.in, got, c.want)
		}
	}
}

// concretize maps a five-valued value to a concrete bool under a chosen
// symbol value; ok is false for X (unconstrained).
func concretize(v value, sym bool) (bool, bool) {
	switch v {
	case zero:
		return false, true
	case one:
		return true, true
	case symD:
		return sym, true
	case symDBar:
		return !sym, true
	}
	return false, false
}

// TestSoundnessAgainstConcrete sweeps every gate over every five-valued
// input triple through the pair encoding. The result must equal the
// reference D-calculus exactly, and — the defining property of the
// calculus — whenever it is not X it must hold for BOTH values of the
// symbol and EVERY concretization of the X inputs.
func TestSoundnessAgainstConcrete(t *testing.T) {
	kinds := []netlist.Kind{netlist.And, netlist.Or, netlist.Nand,
		netlist.Nor, netlist.Xor, netlist.Xnor}
	for _, kind := range kinds {
		for a := zero; a <= unknown; a++ {
			for b := zero; b <= unknown; b++ {
				for c := zero; c <= unknown; c++ {
					in := []value{a, b, c}
					out := pairGate(kind, in...)
					if want := evalGate5(kind, in); out != want {
						t.Fatalf("%v%v: pair=%v reference=%v", kind, in, out, want)
					}
					if out == unknown {
						continue
					}
					for _, sym := range []bool{false, true} {
						for xm := 0; xm < 8; xm++ {
							concrete := make([]uint64, 3)
							for i, v := range in {
								cv, ok := concretize(v, sym)
								if !ok {
									cv = xm>>uint(i)&1 == 1
								}
								if cv {
									concrete[i] = 1
								}
							}
							want := netlist.EvalWord(kind, 0, concrete)&1 == 1
							if got, _ := concretize(out, sym); got != want {
								t.Fatalf("%v%v: out=%v but concrete(sym=%v,xs=%d)=%v",
									kind, in, out, sym, xm, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestRunSelectorCircuit(t *testing.T) {
	// Figure 2 of the paper: w_i = mux(c, ~u_i, ~v_i) built from gates.
	// Setting u=D,D,D with c=0 must propagate D̄ to every w bit.
	nl := netlist.New("fig2")
	c := nl.AddInput("c")
	var u, v, w []netlist.ID
	for i := 0; i < 3; i++ {
		u = append(u, nl.AddInput("u"+string(rune('1'+i))))
		v = append(v, nl.AddInput("v"+string(rune('1'+i))))
	}
	nc := nl.AddGate(netlist.Not, c)
	for i := 0; i < 3; i++ {
		nu := nl.AddGate(netlist.Not, u[i])
		nv := nl.AddGate(netlist.Not, v[i])
		w = append(w, nl.AddGate(netlist.Or,
			nl.AddGate(netlist.And, nc, nu),
			nl.AddGate(netlist.And, c, nv)))
	}
	assign := make(map[netlist.ID]Vector)
	for _, ui := range u {
		assign[ui] = PairD()
	}
	// v unassigned -> X. One Eval checks three control values at once:
	// pair 0 has c=0, pair 1 has c=1, and pair 2 leaves c unforced (X).
	cone := compileAssigned(nl, w, assign)
	cone.Force(c, setPair(setPair(Unknown(), 0, zero), 1, one))
	for i, got := range cone.EvalPairs() {
		for k, want := range []value{symDBar, unknown, unknown} {
			if g := pairValue(got, k); g != want {
				t.Errorf("pair %d: w%d = %v, want %v", k, i+1, g, want)
			}
		}
	}
}

// TestConeReforce pins the compile-once pattern every caller uses: a cone
// compiled once with its leaves cut loose and evaluated again after each
// round of Force calls on those leaves must equal a cone compiled afresh
// and forced once with the same values. Some leaves stay X, wholly or in some
// lanes, and the netlists mix gates and LUT cells.
func TestConeReforce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		nl := randNetlist(rng, 3+rng.Intn(4), 10+rng.Intn(40))
		var leaves []netlist.ID
		for id := netlist.ID(0); int(id) < nl.Len(); id++ {
			if nl.Kind(id).IsConeInput() || rng.Intn(10) == 0 {
				leaves = append(leaves, id)
			}
		}
		var roots []netlist.ID
		for i := 0; i < 3; i++ {
			roots = append(roots, netlist.ID(rng.Intn(nl.Len())))
		}
		cone := CompileCone(nl, roots, leaves)
		for round := 0; round < 4; round++ {
			fresh := make(map[netlist.ID]Vector, len(leaves))
			for _, l := range leaves {
				v := Known(rng.Uint64())
				switch rng.Intn(5) {
				case 0:
					v = Unknown()
				case 1:
					v.Unk = rng.Uint64()
					v.Val &^= v.Unk
				}
				cone.Force(l, v)
				fresh[l] = v
			}
			want := compileAssigned(nl, roots, fresh).Eval()
			for i, v := range cone.Eval() {
				if v != want[i] {
					t.Fatalf("trial %d round %d root %d: re-forced %+v, fresh %+v",
						trial, round, roots[i], v, want[i])
				}
			}
		}
	}
}

// TestVectorInvariant: every lane operation preserves Val & Unk == 0, and
// collapse leaves no pair with exactly one X rail.
func TestVectorInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	randVec := func() Vector {
		unk := rng.Uint64()
		return Vector{Val: rng.Uint64() &^ unk, Unk: unk}
	}
	check := func(name string, v Vector) {
		if v.Val&v.Unk != 0 {
			t.Fatalf("%s violated Val&Unk==0: %+v", name, v)
		}
	}
	for i := 0; i < 2000; i++ {
		a, b := randVec(), randVec()
		check("And", a.And(b))
		check("Or", a.Or(b))
		check("Xor", a.Xor(b))
		check("Not", a.Not())
		c := a.collapse()
		check("collapse", c)
		if half := (c.Unk ^ c.Unk>>1) & evenLanes; half != 0 {
			t.Fatalf("collapse left a half-X pair: %+v", c)
		}
	}
}

// tableOf computes the truth table of root over the given leaves (at most
// truth.MaxVars) in one bit-parallel run: leaf i carries the projection
// pattern of variable i, so every input row evaluates in one word pass.
// It returns ok=false when some row stayed X, that is when root depends on
// signals other than the leaves.
func tableOf(nl *netlist.Netlist, root netlist.ID, leaves []netlist.ID) (truth.Table, bool) {
	cone := CompileCone(nl, []netlist.ID{root}, leaves)
	for i, l := range leaves {
		cone.Force(l, Known(truth.Var(i, truth.MaxVars).Bits))
	}
	v := cone.Eval()[0]
	mask := truth.Mask(len(leaves))
	if v.Unk&mask != 0 {
		return truth.Table{}, false
	}
	return truth.Table{Bits: v.Val & mask, N: len(leaves)}, true
}

// TestTableOfMatchesCuts: for every cut the enumerator produces, evaluating
// the root's cone with projection words on the cut leaves must reproduce
// the cut's truth table bit for bit. This pins the bit-parallel engine to
// the structural table construction of internal/cuts.
func TestTableOfMatchesCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	checked := 0
	for trial := 0; trial < trials; trial++ {
		nl := randNetlist(rng, 4+rng.Intn(3), 15+rng.Intn(40))
		sets := cuts.Enumerate(nl, cuts.Options{K: 6, MaxCuts: 24})
		for id, cs := range sets {
			for _, c := range cs {
				if len(c.Leaves) == 0 {
					continue // constant cut: no leaves to project
				}
				got, ok := tableOf(nl, id, c.Leaves)
				if !ok {
					t.Fatalf("trial %d root %d leaves %v: cut cone left X rows", trial, id, c.Leaves)
				}
				if got != c.Table {
					t.Fatalf("trial %d root %d leaves %v: cone table=%v cut table=%v",
						trial, id, c.Leaves, got, c.Table)
				}
				checked++
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d cuts cross-checked; generator too small", checked)
	}
}

// TestConePosition checks the Force index against the compiled node list:
// every node of the netlist is found exactly when it is in the cone, at its
// own position, for cones from a single node up to the whole netlist.
func TestConePosition(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		nl := randNetlist(rng, 2+rng.Intn(6), 1+rng.Intn(300))
		var roots, cut []netlist.ID
		for i := rng.Intn(4); i >= 0; i-- {
			roots = append(roots, netlist.ID(rng.Intn(nl.Len())))
		}
		for id := netlist.ID(0); int(id) < nl.Len(); id++ {
			if rng.Intn(8) == 0 {
				cut = append(cut, id)
			}
		}
		c := CompileCone(nl, roots, cut)
		in := make(map[netlist.ID]int32, len(c.ids))
		for i, id := range c.ids {
			in[id] = int32(i)
		}
		for id := netlist.ID(0); int(id) < nl.Len(); id++ {
			pos, ok := c.position(id)
			want, wantOK := in[id]
			if ok != wantOK || ok && pos != want {
				t.Fatalf("trial %d node %d: position (%d, %v), want (%d, %v)", trial, id, pos, ok, want, wantOK)
			}
		}
	}
}
