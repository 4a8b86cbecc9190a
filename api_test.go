package netlistre

import (
	"bytes"
	"strings"
	"testing"
)

func buildSmallDesign() *Netlist {
	nl := NewNetlist("small")
	var a, b []ID
	for i := 0; i < 4; i++ {
		a = append(a, nl.AddInput("a"+string(rune('0'+i))))
		b = append(b, nl.AddInput("b"+string(rune('0'+i))))
	}
	carry := nl.AddConst(false)
	for i := 0; i < 4; i++ {
		sum := nl.AddGate(Xor, a[i], b[i], carry)
		carry = nl.AddGate(Or,
			nl.AddGate(And, a[i], b[i]),
			nl.AddGate(And, b[i], carry),
			nl.AddGate(And, carry, a[i]))
		nl.MarkOutput("s"+string(rune('0'+i)), sum)
	}
	nl.MarkOutput("cout", carry)
	return nl
}

func TestPublicAnalyzeAndReport(t *testing.T) {
	nl := buildSmallDesign()
	rep := Analyze(nl, Options{})
	if rep.CountsBefore[TypeAdder] == 0 {
		t.Error("public API did not find the adder")
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"design small", "coverage:", "adder"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestPublicFormatsRoundTrip(t *testing.T) {
	nl := buildSmallDesign()
	var v, blif bytes.Buffer
	if err := nl.WriteVerilog(&v); err != nil {
		t.Fatal(err)
	}
	if err := nl.WriteBLIF(&blif); err != nil {
		t.Fatal(err)
	}
	nv, err := ReadVerilog(&v)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := ReadBLIF(&blif)
	if err != nil {
		t.Fatal(err)
	}
	// Both round-tripped designs still expose a detectable adder.
	for name, n := range map[string]*Netlist{"verilog": nv, "blif": nb} {
		rep := Analyze(n, Options{SkipModMatch: true})
		if rep.CountsBefore[TypeAdder] == 0 {
			t.Errorf("%s round trip lost the adder", name)
		}
	}
}

func TestPartitionByResetsErrors(t *testing.T) {
	nl := buildSmallDesign()
	if _, err := PartitionByResets(nl, []string{"no_such_reset"}); err == nil {
		t.Error("missing reset name did not error")
	}
}

func TestTestArticleRegistry(t *testing.T) {
	names := TestArticleNames()
	if len(names) != 8 {
		t.Fatalf("articles = %v", names)
	}
	for _, n := range names {
		if TestArticleDescription(n) == "" {
			t.Errorf("%s: empty description", n)
		}
	}
	if _, err := TestArticle("bogus"); err == nil {
		t.Error("bogus article did not error")
	}
}

// TestArticleCatalogue: the catalogue lists the Table 2 articles in order,
// then the case studies; every name it lists builds a valid netlist, and
// no other name builds.
func TestArticleCatalogue(t *testing.T) {
	var names []string
	for _, a := range Articles() {
		names = append(names, a.Name)
		if a.Description == "" {
			t.Errorf("%s: empty description", a.Name)
		}
		nl, err := TestArticle(a.Name)
		if err != nil {
			t.Errorf("%s: %v", a.Name, err)
			continue
		}
		if err := nl.Check(); err != nil {
			t.Errorf("%s: invalid netlist: %v", a.Name, err)
		}
	}
	want := append(TestArticleNames(), "bigsoc", "evoter-trojan", "oc8051-trojan")
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("catalogue = %v, want %v", names, want)
	}
	for _, name := range []string{"", "nope", "MIPS16", "usb ", "evoter-lut"} {
		if _, err := TestArticle(name); err == nil {
			t.Errorf("TestArticle(%q) built a netlist", name)
		}
	}
}

func TestSimplifyPublic(t *testing.T) {
	nl := buildSmallDesign()
	noisy := AddElectricalNoise(nl, 3, 0.5)
	res := Simplify(noisy)
	if res.Netlist.Stats().Gates >= noisy.Stats().Gates {
		t.Error("simplification removed nothing")
	}
	if res.RemovedGates <= 0 {
		t.Error("RemovedGates not reported")
	}
}

func TestTableShapes(t *testing.T) {
	if rows := Table2(); len(rows) != 8 {
		t.Errorf("Table2 rows = %d", len(rows))
	}
	if rows := Table7(); len(rows) != 2 {
		t.Errorf("Table7 rows = %d", len(rows))
	}
	for _, r := range Table7() {
		if r.DeltaGates <= 0 || r.DeltaLatches <= 0 {
			t.Errorf("%s: non-positive trojan delta", r.Name)
		}
	}
}
