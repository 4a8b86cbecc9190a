package rtl

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"netlistre/internal/netlist"
)

// wideAndMutant emits a 20-input AND chain driving output y, then
// rewrites the emitted statement of the chain's root to the constant 0.
// The two designs differ on one input row in 2^20, which no sampling of
// a few thousand patterns is likely to hit.
func wideAndMutant(t *testing.T) (*netlist.Netlist, *EmitResult) {
	t.Helper()
	nl := netlist.New("wide")
	root := nl.AddInput("x0")
	for i := 1; i < 20; i++ {
		root = nl.AddGate(netlist.And, root, nl.AddInput("x"+strconv.Itoa(i)))
	}
	nl.MarkOutput("y", root)
	er, err := Emit(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(er.Verilog), "\n")
	ln := er.LineOf(root)
	if ln == 0 || !strings.Contains(lines[ln-1], er.NameOf(root)) {
		t.Fatalf("no emitted statement for the cone root:\n%s", er.Verilog)
	}
	lines[ln-1] = "  assign " + er.NameOf(root) + " = 1'b0;"
	er.Verilog = []byte(strings.Join(lines, "\n"))
	return nl, er
}

// TestCheckRefutesWideConeMutant: the proof refutes a mutant that differs
// from the original on a single row of a 20-input cone.
func TestCheckRefutesWideConeMutant(t *testing.T) {
	nl, er := wideAndMutant(t)
	eq, err := Check(nl, er)
	if err != nil {
		t.Fatal(err)
	}
	if eq.Equivalent || eq.Refuted != 1 || eq.Unknown != 0 || !slices.Contains(eq.Mismatches, "output y differs") {
		t.Fatalf("mutant checked as %v, mismatches %q; want output y refuted", eq, eq.Mismatches)
	}
}

// TestCheckUnknownIsNeitherAnswer: a proof that outgrows the node table is
// unknown, which is neither a refutation nor equivalence. Under a limit
// with room for the inputs and a gate over its cut, the cut table
// overflows, is emptied and re-bound, and gates after an overflow are
// still proved there; under one without room for the inputs, nothing is
// proved at all.
func TestCheckUnknownIsNeitherAnswer(t *testing.T) {
	for _, limit := range []int{32, 16} {
		nl, er := wideAndMutant(t)
		eq, st, err := prove(nl, er, limit)
		if err != nil {
			t.Fatal(err)
		}
		if eq.Equivalent || eq.Unknown != 1 || eq.Refuted != 0 || eq.Proved != 0 {
			t.Fatalf("limit %d: result %v, want output y unknown", limit, eq)
		}
		if want := "(bdd, 0 proved, 0 refuted, 1 unknown)"; !strings.Contains(eq.String(), want) {
			t.Fatalf("String() = %q, want it to contain %q", eq.String(), want)
		}
		if st.peak > limit {
			t.Fatalf("node table reached %d nodes, limit %d", st.peak, limit)
		}
		roomy := limit > 2+len(nl.Inputs())
		if roomy && (st.cuts == st.named || st.cuts < st.named/2) || !roomy && st.cuts != 0 {
			t.Fatalf("limit %d: %d of %d named gates proved at the cut", limit, st.cuts, st.named)
		}
	}
}
