package netlist

import (
	"bytes"
	"strings"
	"testing"
)

func TestLegalize(t *testing.T) {
	cases := map[string]string{
		"a":      "a",
		"abc_3":  "abc_3",
		"module": "module_",
		"wire":   "wire_",
		"and":    "and_",
		"1abc":   "_1abc",
		"a.b[3]": "a_b_3_",
		"":       "_",
		"3":      "_3",
	}
	for in, want := range cases {
		if got := Legalize(in); got != want {
			t.Errorf("Legalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNamerUniquifies(t *testing.T) {
	nm := NewNamer(0)
	nm.Reserve("n5")
	if got := nm.Claim("n5"); got != "n5_" {
		t.Errorf("Claim over reserved = %q, want n5_", got)
	}
	if got := nm.Claim("module"); got != "module_" {
		t.Errorf("Claim(module) = %q", got)
	}
	if got := nm.Claim("module_"); got != "module__" {
		t.Errorf("Claim(module_) = %q, want module__", got)
	}
}

// TestWriteVerilogLegalizesReservedNames is the regression test for the
// name-legalization bug: nets named after Verilog keywords or starting
// with a digit used to be emitted verbatim, producing files WriteVerilog's
// own reader (or any other Verilog tool) rejects. Such names are now
// emitted as backslash-escaped identifiers, so the round trip preserves
// them losslessly instead of mangling them.
func TestWriteVerilogLegalizesReservedNames(t *testing.T) {
	n := New("top")
	a := n.AddInput("module")
	b := n.AddInput("1abc")
	g := n.AddNamedGate("wire", And, a, b)
	n.MarkOutput("wire", g)

	var buf bytes.Buffer
	if err := n.WriteVerilog(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, bad := range []string{" module;", " wire;", " 1abc"} {
		if strings.Contains(text, bad) {
			t.Fatalf("emitted illegal identifier %q:\n%s", bad, text)
		}
	}
	back, err := ReadVerilog(&buf)
	if err != nil {
		t.Fatalf("round trip rejected legalized output: %v\n%s", err, text)
	}
	if len(back.Inputs()) != 2 || len(back.Outputs()) != 1 {
		t.Fatalf("round trip lost structure: %d inputs, %d outputs",
			len(back.Inputs()), len(back.Outputs()))
	}
	if back.FindByName("module") == Nil || back.FindByName("1abc") == Nil {
		t.Fatalf("escaped names missing from round trip:\n%s", text)
	}
	if back.Fingerprint() != n.Fingerprint() {
		t.Fatalf("escaped-identifier round trip changed fingerprint:\n%s", text)
	}

	var blif bytes.Buffer
	if err := n.WriteBLIF(&blif); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBLIF(&blif); err != nil {
		t.Fatalf("BLIF round trip rejected legalized output: %v", err)
	}
}
