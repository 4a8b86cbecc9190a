package rtl

// The round-trip equivalence checker: one BDD proof at the emission's
// named nets. Each original input, latch and visible gate is paired with
// the elaborated node of its emitted name. Inputs and latches are shared
// variables; in topological order, each named gate pair proved equal over
// its fanins' functions becomes one more (a cut), and the outputs and
// latch next-states are proved the same way. A shared variable stands for
// one function on both sides, so equality over the cuts is equality of
// the full cones. Functions that differ over the cuts have their latest
// cut substituted by its own function until they are equal or read only
// inputs and latches; a signal ends proved, refuted, or unknown when the
// node table overflows. A passthrough names every gate: it is proved gate
// by gate.

import (
	"fmt"
	"slices"

	"netlistre/internal/bdd"
	"netlistre/internal/netlist"
)

// maxMismatchReports bounds EquivResult.Mismatches.
const maxMismatchReports = 8

// Check re-elaborates an emission and proves it equivalent to the
// original. A non-nil error means the check could not run (unparseable
// emission); an inequivalent design is reported in the result, not as an
// error.
func Check(orig *netlist.Netlist, er *EmitResult) (*EquivResult, error) {
	res, _, err := prove(orig, er, proofBDDLimit)
	return res, err
}

// netPair is an original node and the elaborated node of its emitted name.
type netPair struct{ o, e netlist.ID }

// signal is one compared signal: a primary output or a latch next-state.
type signal struct {
	label string
	netPair
}

// proofStats counts what one check proved where, for tests and
// measurements.
type proofStats struct {
	named       int // named gate pairs tried as cuts
	cuts        int // named gate pairs proved, hence cuts
	deepCuts    int // cuts proved only after substituting cut variables
	deepSignals int // compared signals proved only after substituting
	peak        int // largest node table reached
}

// pairing is one manager with a builder per netlist, and the pairs bound
// to its shared variables: variable v reads bound[v], the inputs and
// latches first, then the gate cuts in the original's topological order.
type pairing struct {
	m      *bdd.Manager
	bo, be *bdd.Builder
	bound  []netPair
	vars   int // leading pairs of bound that every proof needs
	st     *proofStats
}

// newPairing opens a node table of at most limit nodes with the inputs and
// latches vars bound.
func newPairing(orig, elab *netlist.Netlist, vars []netPair, limit int, st *proofStats) *pairing {
	m := bdd.New(0)
	m.Limit = limit
	s := &pairing{m: m, bo: bdd.NewBuilder(m, orig), be: bdd.NewBuilder(m, elab),
		bound: slices.Clone(vars), vars: len(vars), st: st}
	s.reset()
	return s
}

// bind reads both nodes of p as one fresh variable, a cut when they are
// gates. It reports false when the table has no room for the variable's
// node.
func (s *pairing) bind(p netPair) bool {
	if s.m.Size() >= s.m.Limit {
		return false
	}
	v := s.m.AddVar()
	s.bo.Bind(p.o, v)
	s.be.Bind(p.e, v)
	s.bound = append(s.bound, p)
	return true
}

// reset empties the table and re-binds the bound pairs that fit.
func (s *pairing) reset() {
	s.m.Reset()
	s.bo.Reset()
	s.be.Reset()
	kept := s.bound
	s.bound = s.bound[:0] // bind rewrites each kept pair in its own slot
	for _, p := range kept {
		if !s.bind(p) {
			break
		}
	}
}

// equal proves or refutes that both nodes of p compute one function. It
// compares their expansions over the bound variables; while they differ,
// it substitutes the latest gate cut either reads by that cut's own
// expansion, which reads only earlier variables, so the comparison ends
// over the full cones at the latest. deep reports a substitution. ok is
// false when the table overflowed or the inputs and latches alone do not
// fit. A full table is reset, so no proof starts in one.
func (s *pairing) equal(p netPair) (eq, deep, ok bool) {
	if len(s.bound) < s.vars {
		return false, false, false
	}
	err := s.m.Run(func() {
		fo, fe := s.bo.Expand(p.o), s.be.Expand(p.e)
		for fo != fe {
			v := -1 // the latest variable fo or fe reads
			for _, f := range [2]bdd.Ref{fo, fe} {
				if sup := s.m.Support(f); len(sup) > 0 {
					v = max(v, sup[len(sup)-1])
				}
			}
			if v < s.vars {
				return // differ over the inputs and latches
			}
			def := s.bo.Expand(s.bound[v].o)
			fo, fe = s.m.Compose(fo, v, def), s.m.Compose(fe, v, def)
			deep = true
		}
		eq = true
	})
	s.st.peak = max(s.st.peak, s.m.Size())
	if err != nil || s.m.Size() >= s.m.Limit {
		s.reset()
	}
	return eq, deep, err == nil
}

// prove elaborates the emission and proves it against orig on a node table
// of at most limit nodes.
func prove(orig *netlist.Netlist, er *EmitResult, limit int) (*EquivResult, proofStats, error) {
	var st proofStats
	if orig == nil || er == nil {
		return nil, st, fmt.Errorf("rtl: nil arguments to Check")
	}
	if len(er.names) != orig.Len() {
		return nil, st, fmt.Errorf("rtl: emission names %d nodes, netlist has %d", len(er.names), orig.Len())
	}
	elab, err := elaborate(string(er.Verilog))
	if err != nil {
		return nil, st, fmt.Errorf("rtl: emitted RTL does not elaborate: %w", err)
	}
	res := &EquivResult{Method: "bdd"}
	fail := func(format string, a ...any) {
		if len(res.Mismatches) < maxMismatchReports {
			res.Mismatches = append(res.Mismatches, fmt.Sprintf(format, a...))
		}
	}
	vars, signals, ok := pairSignals(orig, elab, er, fail)
	if !ok {
		return res, st, nil
	}

	s := newPairing(orig, elab, vars, limit, &st)
	for _, id := range orig.TopoOrder() {
		if er.names[id] == "" || !orig.Kind(id).IsGate() {
			continue
		}
		p := netPair{id, elab.FindByName(er.names[id])}
		if p.e == netlist.Nil || !elab.Kind(p.e).IsGate() {
			continue
		}
		st.named++
		if eq, deep, _ := s.equal(p); eq && s.bind(p) {
			st.cuts++
			if deep {
				st.deepCuts++
			}
		}
	}
	for _, sg := range signals {
		switch eq, deep, ok := s.equal(sg.netPair); {
		case !ok:
			res.Unknown++
			fail("%s unknown: BDD node limit reached", sg.label)
		case !eq:
			res.Refuted++
			fail("%s differs", sg.label)
		default:
			res.Proved++
			if deep {
				st.deepSignals++
			}
		}
	}
	res.Equivalent = res.Proved == len(signals)
	return res, st, nil
}

// pairSignals pairs the original inputs and latches with their elaborated
// namesakes, inputs first, and lists the compared signals. It reports a
// structural difference through fail and returns ok false.
func pairSignals(orig, elab *netlist.Netlist, er *EmitResult, fail func(string, ...any)) (vars []netPair, signals []signal, ok bool) {
	ins, lats, outs, eOuts := orig.Inputs(), orig.Latches(), orig.Outputs(), elab.Outputs()
	if n, m := len(elab.Inputs()), len(elab.Latches()); n != len(ins) || m != len(lats) || len(eOuts) != len(outs) {
		fail("inputs, state bits, outputs: %d, %d, %d vs %d, %d, %d", len(ins), len(lats), len(outs), n, m, len(eOuts))
		return nil, nil, false
	}
	for _, id := range append(slices.Clip(ins), lats...) {
		e := elab.FindByName(er.names[id])
		if er.names[id] == "" || e == netlist.Nil || elab.Kind(e) != orig.Kind(id) {
			fail("%s %s missing from elaboration", orig.Kind(id), orig.NameOf(id))
			return nil, nil, false
		}
		vars = append(vars, netPair{id, e})
	}
	for i, o := range outs {
		if eOuts[i].Name != er.outNames[i] {
			fail("output %d renamed to %s", i, eOuts[i].Name)
			return nil, nil, false
		}
		signals = append(signals, signal{"output " + er.outNames[i], netPair{o.Driver, eOuts[i].Driver}})
	}
	for _, p := range vars[len(ins):] {
		signals = append(signals, signal{"state " + er.names[p.o], netPair{orig.Fanin(p.o)[0], elab.Fanin(p.e)[0]}})
	}
	return vars, signals, true
}
