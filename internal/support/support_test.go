package support

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"netlistre/internal/gen"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/simplify"
)

func TestClassesGrouping(t *testing.T) {
	nl := netlist.New("c")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	c := nl.AddInput("c")
	g1 := nl.AddGate(netlist.And, a, b)
	g2 := nl.AddGate(netlist.Or, a, b)
	g3 := nl.AddGate(netlist.Xor, g1, c) // support {a,b,c}
	_ = g3
	classes := Classes(nl)
	found := false
	for _, cl := range classes {
		if len(cl.Outputs) == 2 && cl.Outputs[0] == g1 && cl.Outputs[1] == g2 {
			found = true
			if len(cl.Support) != 2 || cl.Support[0] != a || cl.Support[1] != b {
				t.Errorf("support = %v, want [a b]", cl.Support)
			}
		}
	}
	if !found {
		t.Errorf("class {g1,g2} not found: %v", classes)
	}
}

func TestDecoderDetection(t *testing.T) {
	nl := netlist.New("dec")
	sel := gen.InputWord(nl, "s", 3)
	out := gen.Decoder(nl, sel)
	mods := Analyze(nl, Options{})
	var dec *module.Module
	for _, m := range mods {
		if m.Type == module.Decoder {
			dec = m
		}
	}
	if dec == nil {
		t.Fatalf("no decoder found; modules: %d", len(mods))
	}
	if dec.Width != 8 {
		t.Errorf("decoder width = %d, want 8", dec.Width)
	}
	outSet := make(map[netlist.ID]bool)
	for _, o := range dec.Port("out") {
		outSet[o] = true
	}
	for i, o := range out {
		if !outSet[o] {
			t.Errorf("decoder output %d missing from module", i)
		}
	}
	if got := dec.Port("in"); len(got) != 3 {
		t.Errorf("decoder inputs = %v, want the 3 selects", got)
	}
}

func TestDemuxDetection(t *testing.T) {
	// Decoder outputs gated by a data signal: every output implies data.
	nl := netlist.New("demux")
	sel := gen.InputWord(nl, "s", 2)
	data := nl.AddInput("d")
	dec := gen.Decoder(nl, sel)
	for i, o := range dec {
		nl.MarkOutput("y"+string(rune('0'+i)), nl.AddGate(netlist.And, o, data))
	}
	mods := Analyze(nl, Options{})
	var demux *module.Module
	for _, m := range mods {
		if m.Type == module.Demux {
			demux = m
		}
	}
	if demux == nil {
		t.Fatalf("no demux found among %d modules", len(mods))
	}
	if got := demux.Port("data"); len(got) != 1 || got[0] != data {
		t.Errorf("demux data port = %v, want [%d]", got, data)
	}
}

func TestActiveLowDecoder(t *testing.T) {
	// A NAND-based decoder: exactly one output LOW at a time.
	nl := netlist.New("declow")
	sel := gen.InputWord(nl, "s", 2)
	inv := gen.Word{nl.AddGate(netlist.Not, sel[0]), nl.AddGate(netlist.Not, sel[1])}
	for k := 0; k < 4; k++ {
		lits := make([]netlist.ID, 2)
		for i := 0; i < 2; i++ {
			if k>>uint(i)&1 == 1 {
				lits[i] = sel[i]
			} else {
				lits[i] = inv[i]
			}
		}
		nl.MarkOutput("y"+string(rune('0'+k)), nl.AddGate(netlist.Nand, lits...))
	}
	mods := Analyze(nl, Options{})
	foundLow := false
	for _, m := range mods {
		if (m.Type == module.Decoder || m.Type == module.Demux) && m.Attr["polarity"] == "active-low" {
			foundLow = true
		}
	}
	if !foundLow {
		t.Error("active-low decoder not detected")
	}
}

func TestPopCountDetection(t *testing.T) {
	nl := netlist.New("pc")
	w := gen.InputWord(nl, "w", 5)
	cnt := gen.PopCount(nl, w)
	mods := Analyze(nl, Options{})
	var pc *module.Module
	for _, m := range mods {
		if m.Type == module.PopCount {
			pc = m
		}
	}
	if pc == nil {
		t.Fatalf("no popcount found among %d modules", len(mods))
	}
	got := pc.Port("count")
	if len(got) != len(cnt) {
		t.Fatalf("count port = %v, want %d bits", got, len(cnt))
	}
	for i := range cnt {
		if got[i] != cnt[i] {
			t.Errorf("count[%d] = %d, want %d", i, got[i], cnt[i])
		}
	}
}

func TestAdderIsNotMisclassified(t *testing.T) {
	// Adders do NOT have common support across outputs (the paper makes
	// this exact point in Section II-E) and must produce no decoder or
	// popcount modules.
	nl := netlist.New("add")
	a := gen.InputWord(nl, "a", 5)
	b := gen.InputWord(nl, "b", 5)
	gen.RippleAdder(nl, a, b, netlist.Nil)
	for _, m := range Analyze(nl, Options{}) {
		t.Errorf("adder produced %s module", m.Name)
	}
}

func TestMuxIsNotDecoder(t *testing.T) {
	// All mux output bits have different supports (different data bits),
	// so no module should be inferred.
	nl := netlist.New("mux")
	s := nl.AddInput("s")
	a := gen.InputWord(nl, "a", 4)
	b := gen.InputWord(nl, "b", 4)
	gen.Mux2Word(nl, s, a, b)
	for _, m := range Analyze(nl, Options{}) {
		t.Errorf("mux produced %s module", m.Name)
	}
}

// coneClasses is the reference grouping Classes must reproduce: every gate
// keyed by the inputs of its own full fan-in cone walk, keeping classes of
// width at most maxSupport with at least two outputs.
func coneClasses(nl *netlist.Netlist) []Class {
	byKey := make(map[string]*Class)
	for id := netlist.ID(0); int(id) < nl.Len(); id++ {
		if !nl.Kind(id).IsGate() {
			continue
		}
		sup := nl.ConeOf(id).Inputs
		if len(sup) == 0 || len(sup) > maxSupport {
			continue
		}
		key := fmt.Sprint(sup)
		if byKey[key] == nil {
			byKey[key] = &Class{Support: sup}
		}
		byKey[key].Outputs = append(byKey[key].Outputs, id)
	}
	var out []Class
	for _, c := range byKey {
		if len(c.Outputs) >= 2 {
			out = append(out, *c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Outputs[0] < out[j].Outputs[0] })
	return out
}

func checkClassesExact(t *testing.T, name string, nl *netlist.Netlist) {
	t.Helper()
	got, want := Classes(nl), coneClasses(nl)
	if len(got) != len(want) {
		t.Errorf("%s: %d classes, cone-walk oracle has %d", name, len(got), len(want))
		return
	}
	for i := range got {
		if !slices.Equal(got[i].Support, want[i].Support) || !slices.Equal(got[i].Outputs, want[i].Outputs) {
			t.Errorf("%s class %d: %v, oracle %v", name, i, got[i], want[i])
		}
	}
}

// TestClassesMatchConeWalk checks the one-pass support merge against a
// full fan-in cone walk per gate on every labeled article, every LUT twin
// and the simplified BigSoC.
func TestClassesMatchConeWalk(t *testing.T) {
	for _, name := range gen.LabeledArticleNames() {
		nl, _, err := gen.LabeledArticle(name)
		if err != nil {
			t.Fatalf("article %s: %v", name, err)
		}
		checkClassesExact(t, name, nl)
	}
	if testing.Short() {
		t.Skip("BigSoC; skipped in -short mode")
	}
	checkClassesExact(t, "bigsoc", simplify.Run(gen.BigSoC()).Netlist)
}

// TestClassesWidthBound: a chain whose support grows by one input per
// stage, with a same-support sibling at every stage, yields classes up to
// width maxSupport and none past it; a gate fed only by constants has
// empty support and joins no class.
func TestClassesWidthBound(t *testing.T) {
	nl := netlist.New("chain")
	x := gen.InputWord(nl, "x", maxSupport+2)
	c0, c1 := nl.AddConst(false), nl.AddConst(true)
	constOnly := []netlist.ID{nl.AddGate(netlist.And, c0, c1), nl.AddGate(netlist.Or, c0, c1)}
	g := x[0]
	for k := 1; k < len(x); k++ {
		nl.AddGate(netlist.Or, g, x[k], c1) // sibling of the next stage
		g = nl.AddGate(netlist.And, g, x[k])
	}
	checkClassesExact(t, "chain", nl)
	classes := Classes(nl)
	if len(classes) != maxSupport-1 {
		t.Fatalf("%d classes, want one per width 2..%d", len(classes), maxSupport)
	}
	for i, c := range classes {
		if len(c.Support) != i+2 || len(c.Outputs) != 2 {
			t.Errorf("class %d: support %v outputs %v, want width %d with 2 outputs", i, c.Support, c.Outputs, i+2)
		}
		for _, o := range c.Outputs {
			if slices.Contains(constOnly, o) {
				t.Errorf("constant-fed gate %d joined class %v", o, c)
			}
		}
	}
}

// TestClassesRandom compares Classes with the cone-walk oracle on seeded
// random netlists mixing gates, LUT cells, constants and latches, including
// latches whose D input is a gate created after the logic that reads them.
func TestClassesRandom(t *testing.T) {
	kinds := []netlist.Kind{netlist.And, netlist.Or, netlist.Nand, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nl := netlist.New(fmt.Sprintf("rand%d", seed))
		nIn, nLatch, nGate := 6+rng.Intn(12), rng.Intn(4), 60+rng.Intn(200)
		ids := []netlist.ID{nl.AddConst(false), nl.AddConst(true)}
		for i := 0; i < nIn; i++ {
			ids = append(ids, nl.AddInput(fmt.Sprintf("i%d", i)))
		}
		var latches []netlist.ID
		for i := 0; i < nLatch; i++ {
			l := nl.AddLatch(ids[2])
			latches = append(latches, l)
			ids = append(ids, l)
		}
		// Fanins favour recent nodes so cones grow deep and reconverge.
		pick := func() netlist.ID {
			if rng.Intn(3) == 0 {
				return ids[rng.Intn(len(ids))]
			}
			return ids[len(ids)-1-rng.Intn(min(len(ids), 8))]
		}
		for i := 0; i < nGate; i++ {
			var g netlist.ID
			switch k := kinds[rng.Intn(len(kinds))]; {
			case rng.Intn(4) == 0:
				fanin := make([]netlist.ID, 1+rng.Intn(netlist.MaxLutInputs))
				for j := range fanin {
					fanin[j] = pick()
				}
				g = nl.AddLut(rng.Uint64()&(1<<(1<<uint(len(fanin)))-1), fanin...)
			case k == netlist.Not || k == netlist.Buf:
				g = nl.AddGate(k, pick())
			default:
				fanin := make([]netlist.ID, 2+rng.Intn(3))
				for j := range fanin {
					fanin[j] = pick()
				}
				g = nl.AddGate(k, fanin...)
			}
			ids = append(ids, g)
		}
		for _, l := range latches {
			nl.SetLatchD(l, ids[len(ids)-1-rng.Intn(10)])
		}
		if err := nl.Check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkClassesExact(t, nl.Name, nl)
	}
}

// supportModuleKey renders everything Analyze decides about a module: type,
// name, elements, ports and attributes.
func supportModuleKey(m *module.Module) string {
	attrs := make([]string, 0, len(m.Attr))
	for k, v := range m.Attr {
		attrs = append(attrs, k+"="+v)
	}
	sort.Strings(attrs)
	return fmt.Sprintf("%v %s %v %v %v", m.Type, m.Name, m.Elements, m.Ports, attrs)
}

// TestAnalyzeWorkerCounts checks that each worker's reused BDD manager and
// builder leave no trace in the results: Analyze at 1, 2 and 4 workers
// returns the same modules on every labeled article and, outside -short,
// on simplified BigSoC.
func TestAnalyzeWorkerCounts(t *testing.T) {
	names := gen.LabeledArticleNames()
	if !testing.Short() {
		names = append(names, "bigsoc")
	}
	for _, name := range names {
		var nl *netlist.Netlist
		if name == "bigsoc" {
			nl = simplify.Run(gen.SoC("bigsoc", gen.BigSoCCoreNames(), 1, 0.22)).Netlist
		} else {
			var err error
			if nl, _, err = gen.LabeledArticle(name); err != nil {
				t.Fatalf("article %s: %v", name, err)
			}
		}
		var want []string
		for _, workers := range []int{1, 2, 4} {
			var got []string
			for _, m := range Analyze(nl, Options{Workers: workers}) {
				got = append(got, supportModuleKey(m))
			}
			if workers == 1 {
				want = got
			} else if !slices.Equal(got, want) {
				t.Errorf("%s: %d workers found\n%v\n1 worker found\n%v", name, workers, got, want)
			}
		}
	}
}
