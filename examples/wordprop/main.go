// Wordprop walks through Figure 2 of the paper: symbolic word propagation
// through an inverting selector using five-valued {0,1,D,D̄,X} simulation.
// This example uses the library's internal packages directly to show the
// machinery under the public Analyze API.
//
//	go run ./examples/wordprop
package main

import (
	"fmt"
	"io"
	"os"

	"netlistre/internal/bitsim"
	"netlistre/internal/gen"
	"netlistre/internal/netlist"
	"netlistre/internal/words"
)

func main() { run(os.Stdout) }

func run(out io.Writer) {
	// Figure 2: w = c ? ~v : ~u, bit by bit.
	nl := netlist.New("fig2")
	c := nl.AddInput("c")
	u := gen.InputWord(nl, "u", 3)
	v := gen.InputWord(nl, "v", 3)
	nu := gen.BitwiseNot(nl, u)
	nv := gen.BitwiseNot(nl, v)
	w := gen.Mux2Word(nl, c, nu, nv)
	gen.MarkOutputs(nl, "w", w)

	fmt.Fprintln(out, "circuit: w_i = c ? ~v_i : ~u_i   (Figure 2 of the paper)")
	fmt.Fprintln(out)

	// Step 1: five-valued simulation with u = (D,D,D) and c = 0, in the
	// pair encoding: every lane pair holds a signal's D=0 and D=1 values.
	assign := map[netlist.ID]bitsim.Vector{c: bitsim.Known(0)}
	for _, b := range u {
		assign[b] = bitsim.PairD()
	}
	vals := bitsim.CompileCone(nl, w, assign).EvalPairs()
	fmt.Fprintln(out, "with u=D,D,D and c=0 the outputs evaluate to:")
	for i, val := range vals {
		fmt.Fprintf(out, "  w%d = %s\n", i+1, val.PairString(0))
	}
	fmt.Fprintln(out, "all outputs are D̄: the negated value of u propagates to w when c=0")
	fmt.Fprintln(out)

	// Step 2: the automated guess-and-check propagation.
	all, props := words.PropagateAll(nl, []words.Word{{Bits: u, Origin: "seed"}}, 4, words.Options{})
	fmt.Fprintf(out, "automated propagation from the seed word u discovered %d words:\n", len(all))
	for _, wd := range all {
		fmt.Fprintf(out, "  %-22s bits=%v\n", wd.Origin, wd.Bits)
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "propagation steps (with discovered control assignments):")
	for _, p := range props {
		dir := "forward"
		if p.Backward {
			dir = "backward"
		}
		fmt.Fprintf(out, "  %v -> %v  [%s, controls %v]\n",
			p.Source.Bits, p.Target.Bits, dir, p.Controls)
	}
}
