package rtl

// The word-level Verilog renderer. Every ordering and naming decision
// keys on net names (never raw node IDs), so the emitted bytes are
// identical across worker counts and across Verilog/BLIF serializations
// of the same design — round-tripped netlists carry the same names even
// though their IDs differ.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"netlistre/internal/core"
	"netlistre/internal/netlist"
)

// lineWriter accumulates output and tracks 1-based line numbers.
type lineWriter struct {
	b    []byte
	line int
}

// linef writes one line and returns its line number.
func (w *lineWriter) linef(format string, a ...any) int {
	w.line++
	w.b = fmt.Appendf(w.b, format, a...)
	w.b = append(w.b, '\n')
	return w.line
}

// raw writes pre-formatted text, counting its newlines.
func (w *lineWriter) raw(s string) {
	w.line += strings.Count(s, "\n")
	w.b = append(w.b, s...)
}

// cell writes one residual cell line, "  <head> <inst> (<c0>, <c1>, ...);",
// and returns its line number. Residual logic is most of an emission, so
// these lines bypass fmt.
func (w *lineWriter) cell(head, inst string, conns []string) int {
	w.line++
	w.b = append(w.b, "  "...)
	w.b = append(w.b, head...)
	w.b = append(w.b, ' ')
	w.b = append(w.b, inst...)
	w.b = append(w.b, " ("...)
	for i, c := range conns {
		if i > 0 {
			w.b = append(w.b, ", "...)
		}
		w.b = append(w.b, c...)
	}
	w.b = append(w.b, ");\n"...)
	return w.line
}

var primOf = map[netlist.Kind]string{
	netlist.And: "and", netlist.Or: "or", netlist.Nand: "nand",
	netlist.Nor: "nor", netlist.Xor: "xor", netlist.Xnor: "xnor",
	netlist.Not: "not", netlist.Buf: "buf",
}

// lutPins are re_lut's input port prefixes, by input index.
var lutPins = [...]string{".I0(", ".I1(", ".I2(", ".I3(", ".I4(", ".I5("}

// Emit lowers the report's recovered structure over nl into word-level
// Verilog. A nil report (or one without resolved modules) produces a pure
// structural passthrough, which the checker proves gate by gate.
func Emit(nl *netlist.Netlist, rep *core.Report) (*EmitResult, error) {
	if nl == nil {
		return nil, fmt.Errorf("rtl: nil netlist")
	}
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("rtl: invalid input netlist: %w", err)
	}
	p := newPlan(nl)
	if rep != nil {
		p = buildPlans(nl, rep)
	}

	// --- naming ---
	nm := netlist.NewNamer(nl.Len())
	outs := nl.Outputs()
	outNames := make([]string, len(outs))
	reuseFor := map[string]netlist.ID{} // claimed output name -> driver
	for i, o := range outs {
		outNames[i] = nm.Claim(o.Name)
		if _, dup := reuseFor[outNames[i]]; !dup {
			reuseFor[outNames[i]] = o.Driver
		}
	}
	// names holds every visible node's emitted identifier by node ID, ""
	// for nodes a template hides.
	names := make([]string, nl.Len())
	reused := make([]bool, nl.Len()) // nodes that carry their output's name directly
	for id := netlist.ID(0); int(id) < nl.Len(); id++ {
		if p.hidden(id) {
			continue
		}
		desired := netlist.Legalize(nl.NameOf(id))
		// Only the one driver reuseFor records for a name can carry it.
		if p.outDriver[id] && nl.Kind(id) != netlist.Input {
			if drv, ok := reuseFor[desired]; ok && drv == id {
				names[id], reused[id] = desired, true
				continue
			}
		}
		names[id] = nm.Claim(desired) // Legalize is idempotent
	}
	name := func(id netlist.ID) string {
		n := names[id]
		if n == "" {
			// Unreachable if the planner's leak check holds.
			panic(fmt.Sprintf("rtl: reference to hidden node %d", id))
		}
		return n
	}
	clkName := ""
	if len(p.regs) > 0 {
		clkName = nm.Claim("clk")
	}

	// --- deterministic ordering & derived names ---
	// Words: fully visible, width >= 2, deduplicated, sorted by bit names.
	type wordDecl struct {
		key  string
		name string
		bits []netlist.ID
	}
	var wdecls []wordDecl
	if rep != nil {
		seen := map[string]bool{}
		for _, w := range rep.Words {
			if len(w.Bits) < 2 {
				continue
			}
			ok := true
			bitNames := make([]string, len(w.Bits))
			for i, b := range w.Bits {
				if bitNames[i] = names[b]; bitNames[i] == "" {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			key := strings.Join(bitNames, ",")
			if seen[key] {
				continue
			}
			seen[key] = true
			wdecls = append(wdecls, wordDecl{key: key, bits: w.Bits})
		}
		sort.Slice(wdecls, func(i, j int) bool { return wdecls[i].key < wdecls[j].key })
		for i := range wdecls {
			wdecls[i].name = nm.Claim(fmt.Sprintf("w%d", i))
		}
	}

	insts := append([]*instance(nil), p.instances...)
	slices.SortFunc(insts, func(a, b *instance) int {
		return cmp.Or(strings.Compare(a.template, b.template),
			strings.Compare(name(a.outputs[0]), name(b.outputs[0])))
	})
	instName := make([]string, len(insts))
	for i := range insts {
		instName[i] = nm.Claim(fmt.Sprintf("u%d", i))
	}

	regs := append([]*regBlock(nil), p.regs...)
	sort.Slice(regs, func(i, j int) bool { return name(regs[i].q[0]) < name(regs[j].q[0]) })
	regName := make([]string, len(regs))
	for i, rb := range regs {
		prefix := map[int]string{regCounter: "cnt_", regShift: "sr_", regLoad: "reg_"}[rb.kind]
		regName[i] = nm.Claim(prefix + name(rb.q[0]))
	}

	// Residual nodes, sorted by emitted name.
	var residual []netlist.ID
	stats := EmitStats{
		Instances:       len(insts),
		AlwaysBlocks:    len(regs),
		CoveredElements: p.nCovered,
		Words:           len(wdecls),
	}
	for id := netlist.ID(0); int(id) < nl.Len(); id++ {
		if p.covered[id] {
			continue
		}
		switch k := nl.Kind(id); {
		case k == netlist.Input:
		case k == netlist.Latch:
			residual = append(residual, id)
			stats.ResidualLatches++
		case k.IsGate():
			residual = append(residual, id)
			stats.ResidualGates++
		default: // constants
			residual = append(residual, id)
		}
	}
	slices.SortFunc(residual, func(a, b netlist.ID) int { return strings.Compare(names[a], names[b]) })

	// --- render ---
	w := &lineWriter{}
	lineOf := make([]int32, nl.Len())
	design := netlist.Legalize(nl.Name)
	w.linef("// %s: word-level RTL decompiled by netlistre revan.", design)
	w.linef("// instances=%d always_blocks=%d residual_gates=%d residual_latches=%d covered=%d words=%d",
		stats.Instances, stats.AlwaysBlocks, stats.ResidualGates,
		stats.ResidualLatches, stats.CoveredElements, stats.Words)

	inputs := nl.Inputs()
	var portList []string
	for _, id := range inputs {
		portList = append(portList, name(id))
	}
	if clkName != "" {
		portList = append(portList, clkName)
	}
	portList = append(portList, outNames...)
	w.linef("module %s (%s);", design, strings.Join(portList, ", "))

	for _, id := range inputs {
		lineOf[id] = int32(w.linef("  input %s;", name(id)))
	}
	if clkName != "" {
		w.linef("  input %s;", clkName)
	}
	for _, n := range outNames {
		w.linef("  output %s;", n)
	}

	// Scalar wires: every visible non-input net that is not carried
	// directly by an output declaration.
	var wireNames []string
	for id := netlist.ID(0); int(id) < nl.Len(); id++ {
		n := names[id]
		if n == "" || nl.Kind(id) == netlist.Input || reused[id] {
			continue
		}
		wireNames = append(wireNames, n)
	}
	slices.Sort(wireNames)
	for _, n := range wireNames {
		w.line++
		w.b = append(w.b, "  wire "...)
		w.b = append(w.b, n...)
		w.b = append(w.b, ";\n"...)
	}

	// Recovered words as documentation vectors.
	for _, wd := range wdecls {
		w.linef("  wire [%d:0] %s;  // recovered word", len(wd.bits)-1, wd.name)
		w.linef("  assign %s = %s;", wd.name, msbConcat(wd.bits, name))
	}

	for i, rb := range regs {
		w.linef("  reg [%d:0] %s;", len(rb.q)-1, regName[i])
	}

	for i, inst := range insts {
		var conns []string
		for _, pc := range inst.ports {
			conns = append(conns, fmt.Sprintf(".%s(%s)", pc.name, busRef(pc.bits, name)))
		}
		ln := int32(w.linef("  %s %s (%s);", inst.template, instName[i], strings.Join(conns, ", ")))
		for _, id := range inst.covered {
			lineOf[id] = ln
		}
		for _, id := range inst.outputs {
			lineOf[id] = ln
		}
	}

	for i, rb := range regs {
		expr := regExpr(rb, regName[i], name)
		ln := int32(w.linef("  always @(posedge %s) begin", clkName))
		w.linef("    %s <= %s;", regName[i], expr)
		w.linef("  end")
		w.linef("  assign %s = %s;", msbConcat(rb.q, name), regName[i])
		for _, id := range rb.covered {
			lineOf[id] = ln
		}
		for _, id := range rb.q {
			lineOf[id] = ln
		}
	}

	gi := 0
	hasLut := false
	var args []string
	for _, id := range residual {
		var ln int
		switch k := nl.Kind(id); {
		case k == netlist.Const0:
			ln = w.linef("  assign %s = 1'b0;", name(id))
		case k == netlist.Const1:
			ln = w.linef("  assign %s = 1'b1;", name(id))
		case k == netlist.Latch:
			args = append(args[:0], name(id), name(nl.Fanin(id)[0]))
			ln = w.cell("dff", nm.Claim("g"+strconv.Itoa(gi)), args)
			gi++
		case k == netlist.Lut:
			hasLut = true
			fanin := nl.Fanin(id)
			gname := nm.Claim("g" + strconv.Itoa(gi))
			gi++
			w.line++
			ln = w.line
			w.b = append(w.b, "  re_lut #(.INIT("...)
			w.b = append(w.b, netlist.LutInitLiteral(nl.Node(id).Mask, len(fanin))...)
			w.b = append(w.b, ")) "...)
			w.b = append(w.b, gname...)
			w.b = append(w.b, " (.O("...)
			w.b = append(w.b, name(id)...)
			w.b = append(w.b, ')')
			for j, f := range fanin {
				w.b = append(w.b, ", "...)
				w.b = append(w.b, lutPins[j]...)
				w.b = append(w.b, name(f)...)
				w.b = append(w.b, ')')
			}
			w.b = append(w.b, ");\n"...)
		default:
			args = append(args[:0], name(id))
			for _, f := range nl.Fanin(id) {
				args = append(args, name(f))
			}
			ln = w.cell(primOf[k], nm.Claim("g"+strconv.Itoa(gi)), args)
			gi++
		}
		lineOf[id] = int32(ln)
	}

	for i, o := range outs {
		if reused[o.Driver] && names[o.Driver] == outNames[i] {
			continue
		}
		w.linef("  assign %s = %s;", outNames[i], name(o.Driver))
	}
	w.linef("endmodule")

	// Template definitions, one per distinct name.
	tset := map[string]bool{}
	var tnames []string
	if hasLut {
		tset["re_lut"] = true
		tnames = append(tnames, "re_lut")
	}
	for _, inst := range insts {
		if !tset[inst.template] {
			tset[inst.template] = true
			tnames = append(tnames, inst.template)
		}
	}
	sort.Strings(tnames)
	for _, tn := range tnames {
		w.linef("")
		w.raw(templateDoc(tn))
	}

	return &EmitResult{
		Verilog:  w.b,
		Stats:    stats,
		names:    names,
		lineOf:   lineOf,
		outNames: outNames,
	}, nil
}

// busRef renders a port connection: a bare identifier for one bit, an
// MSB-first concatenation otherwise.
func busRef(bits []netlist.ID, name func(netlist.ID) string) string {
	if len(bits) == 1 {
		return name(bits[0])
	}
	return msbConcat(bits, name)
}

// msbConcat renders LSB-first bits as a Verilog {msb, ..., lsb} concat.
func msbConcat(bits []netlist.ID, name func(netlist.ID) string) string {
	parts := make([]string, len(bits))
	for i, b := range bits {
		parts[len(bits)-1-i] = name(b)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// regExpr renders the next-state expression of a sequential block.
func regExpr(rb *regBlock, reg string, name func(netlist.ID) string) string {
	w := len(rb.q)
	var inner string
	switch rb.kind {
	case regCounter:
		op := "+"
		if rb.down {
			op = "-"
		}
		inner = fmt.Sprintf("%s ? %s %s %d'd1 : %s", name(rb.en), reg, op, w, reg)
	case regShift:
		shifted := fmt.Sprintf("{%s[%d:0], %s}", reg, w-2, name(rb.serialIn))
		inner = fmt.Sprintf("%s ? %s : %s", name(rb.en), shifted, reg)
	case regLoad:
		expr := reg
		for i := len(rb.conds) - 1; i >= 0; i-- {
			if i < len(rb.conds)-1 {
				expr = "(" + expr + ")"
			}
			expr = fmt.Sprintf("%s ? %s : %s", name(rb.conds[i]), msbConcat(rb.srcs[i], name), expr)
		}
		return expr
	}
	if rb.rst != netlist.Nil {
		return fmt.Sprintf("%s ? %d'd0 : (%s)", name(rb.rst), w, inner)
	}
	return inner
}
