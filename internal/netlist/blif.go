package netlist

// BLIF (Berkeley Logic Interchange Format) reader and writer. BLIF is the
// lingua franca of academic logic-synthesis tools (SIS, ABC, mockturtle),
// so supporting it lets this library exchange netlists with the ecosystem
// the paper's techniques come from.
//
// Supported subset: .model/.inputs/.outputs/.names/.latch/.end, with
// multi-line cover tables for .names. Latches use the re (rising-edge)
// convention; clock and init fields are accepted and ignored (the analyses
// are clock-agnostic and assume zero initialization).
//
// ReadBLIF scans its lines in place, with no limit on a line's length, and
// builds through the builder it shares with ReadVerilog (reader.go): a
// cover that drives an input, a latch output or another cover's net is a
// "driven twice" error.

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteBLIF serializes the netlist in BLIF. Gates become .names cover
// tables; latches become .latch lines.
func (n *Netlist) WriteBLIF(w io.Writer) error {
	bw := bufio.NewWriter(w)
	name := n.Name
	if name == "" {
		name = "top"
	}
	netName := func(id ID) string {
		if nm := n.nodes[id].Name; nm != "" {
			return blifName(nm)
		}
		return fmt.Sprintf("n%d", id)
	}

	fmt.Fprintf(bw, ".model %s\n", blifName(name))
	fmt.Fprintf(bw, ".inputs")
	for _, in := range n.Inputs() {
		fmt.Fprintf(bw, " %s", netName(in))
	}
	fmt.Fprintln(bw)
	fmt.Fprintf(bw, ".outputs")
	seenOut := map[string]bool{}
	for _, p := range n.outputs {
		nm := blifName(p.Name)
		if !seenOut[nm] {
			seenOut[nm] = true
			fmt.Fprintf(bw, " %s", nm)
		}
	}
	fmt.Fprintln(bw)

	for i := range n.nodes {
		id := ID(i)
		node := &n.nodes[i]
		switch node.Kind {
		case Input:
		case Latch:
			fmt.Fprintf(bw, ".latch %s %s re clk 0\n", netName(node.Fanin[0]), netName(id))
		case Const0:
			fmt.Fprintf(bw, ".names %s\n", netName(id)) // empty cover = constant 0
		case Const1:
			fmt.Fprintf(bw, ".names %s\n1\n", netName(id))
		default:
			writeCover(bw, n, id, netName)
		}
	}
	for _, p := range n.outputs {
		nm := blifName(p.Name)
		if netName(p.Driver) != nm {
			// Alias buffer for the output name.
			fmt.Fprintf(bw, ".names %s %s\n1 1\n", netName(p.Driver), nm)
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// blifName returns a net name as a BLIF token. BLIF has no reserved words,
// so any whitespace-free printable name that cannot be mistaken for a
// directive, comment, or continuation passes through verbatim — which is
// what lets FPGA-style names (`LUT4`, `n$123`) round-trip byte-identically.
// Everything else falls back to Legalize.
func blifName(s string) string {
	if !escapable(s) || s[0] == '.' || strings.ContainsAny(s, "\\#") {
		return Legalize(s)
	}
	return s
}

// writeCover emits the .names cover of one gate. Lut covers carry a
// trailing "# lut" comment: BLIF cover tables cannot distinguish a
// truth-table cell from the gate computing the same function (an And cover
// and a Lut-mask-0b1000 cover are byte-identical), so the writer marks the
// distinction in a comment any other BLIF tool ignores, and ReadBLIF maps
// exactly the marked covers back to native Lut nodes. This keeps mixed
// gate/LUT netlists — and their fingerprints — exact across a round trip.
func writeCover(bw *bufio.Writer, n *Netlist, id ID, netName func(ID) string) {
	node := &n.nodes[id]
	fmt.Fprintf(bw, ".names")
	for _, f := range node.Fanin {
		fmt.Fprintf(bw, " %s", netName(f))
	}
	fmt.Fprintf(bw, " %s", netName(id))
	if node.Kind == Lut {
		fmt.Fprintf(bw, " # lut")
	}
	fmt.Fprintln(bw)
	k := len(node.Fanin)
	switch node.Kind {
	case Lut:
		// One fully-specified minterm row per set mask bit, ascending.
		for r := uint(0); r < 1<<uint(k); r++ {
			if node.Mask>>r&1 == 0 {
				continue
			}
			row := make([]byte, k)
			for j := 0; j < k; j++ {
				if r>>uint(j)&1 == 1 {
					row[j] = '1'
				} else {
					row[j] = '0'
				}
			}
			fmt.Fprintf(bw, "%s 1\n", row)
		}
	case Buf:
		fmt.Fprintln(bw, "1 1")
	case Not:
		fmt.Fprintln(bw, "0 1")
	case And:
		fmt.Fprintln(bw, strings.Repeat("1", k)+" 1")
	case Nand:
		// ~AND as a sum of single-zero cubes.
		for i := 0; i < k; i++ {
			row := make([]byte, k)
			for j := range row {
				row[j] = '-'
			}
			row[i] = '0'
			fmt.Fprintf(bw, "%s 1\n", row)
		}
	case Or:
		for i := 0; i < k; i++ {
			row := make([]byte, k)
			for j := range row {
				row[j] = '-'
			}
			row[i] = '1'
			fmt.Fprintf(bw, "%s 1\n", row)
		}
	case Nor:
		fmt.Fprintln(bw, strings.Repeat("0", k)+" 1")
	case Xor, Xnor:
		// Enumerate parity rows (gate arity in this IR is small).
		wantOdd := node.Kind == Xor
		for m := 0; m < 1<<uint(k); m++ {
			ones := 0
			row := make([]byte, k)
			for j := 0; j < k; j++ {
				if m>>uint(j)&1 == 1 {
					row[j] = '1'
					ones++
				} else {
					row[j] = '0'
				}
			}
			if (ones%2 == 1) == wantOdd {
				fmt.Fprintf(bw, "%s 1\n", row)
			}
		}
	}
}

// BLIFOptions configures ReadBLIFOpts.
type BLIFOptions struct {
	// Luts keeps arbitrary .names cover tables as native Lut nodes (up to
	// MaxLutInputs inputs) instead of decomposing them into primitive
	// gates — the natural reading for LUT-mapped FPGA netlists. Empty
	// covers stay constants and the single-cube `1 1` alias cover stays a
	// Buf, so alias structure (and therefore fingerprints) agree with the
	// structural-Verilog reader. Covers wider than MaxLutInputs fall back
	// to the gate decomposition.
	Luts bool
}

// ReadBLIF parses the BLIF subset emitted by WriteBLIF plus common
// variations (multi-cube .names, '-' don't-cares, single-output covers).
// Cover tables are converted to netlist gates: each cube becomes an AND of
// literals and cubes are ORed; covers listing output 0 are complemented.
func ReadBLIF(r io.Reader) (*Netlist, error) {
	return ReadBLIFOpts(r, BLIFOptions{})
}

// ReadBLIFOpts is ReadBLIF with explicit options. It reads the text once
// into one string and scans its lines in place, so a line may be of any
// length; the builder copies each net name out of the text.
func ReadBLIFOpts(r io.Reader, opt BLIFOptions) (*Netlist, error) {
	src, err := readText(r)
	if err != nil {
		return nil, err
	}
	b := newBuilder("blif", strings.Count(src, ".names"))
	b.opt = opt
	var model string
	var ins []int32
	cur := -1 // the open cover, to which rows belong
	// Lines end at '\n'; a last line needs no terminator.
	for rest := src; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		line = strings.TrimSpace(line)
		// The "# lut" marker WriteBLIF appends to Lut covers is read here,
		// where comments are stripped.
		lut := false
		if i := strings.IndexByte(line, '#'); i >= 0 {
			lut = strings.TrimSpace(line[i+1:]) == "lut"
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		// A line ending in a backslash continues on the next one, which
		// is taken whole, comment and all. The joined line may be blank.
		for strings.HasSuffix(line, "\\") && rest != "" {
			var more string
			more, rest, _ = strings.Cut(rest, "\n")
			line = strings.TrimSuffix(line, "\\") + " " + strings.TrimSpace(more)
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case ".model":
			if len(fields) > 1 {
				model = fields[1]
			}
		case ".inputs":
			cur = -1
			for _, f := range fields[1:] {
				if err := b.drive(b.net(f), driver{kind: drvInput}); err != nil {
					return nil, err
				}
			}
		case ".outputs":
			cur = -1
			for _, f := range fields[1:] {
				b.output(b.net(f))
			}
		case ".latch":
			cur = -1
			if len(fields) < 3 {
				return nil, fmt.Errorf("blif: malformed .latch %q", line)
			}
			if err := b.drive(b.net(fields[2]), driver{kind: drvLatch}, b.net(fields[1])); err != nil {
				return nil, err
			}
		case ".names":
			if len(fields) < 2 {
				return nil, fmt.Errorf("blif: malformed .names %q", line)
			}
			cur = len(b.covers)
			b.covers = append(b.covers, blifCover{off: int32(len(b.cubes)), k: int32(len(fields) - 2), outVal: '1', lut: lut})
			ins = ins[:0]
			for _, f := range fields[1 : len(fields)-1] {
				ins = append(ins, b.net(f))
			}
			out := b.net(fields[len(fields)-1])
			if err := b.drive(out, driver{kind: drvCover, cover: int32(cur)}, ins...); err != nil {
				return nil, err
			}
		case ".end":
			cur = -1
		default:
			if fields[0][0] == '.' {
				return nil, fmt.Errorf("blif: unsupported construct %q", fields[0])
			}
			if cur < 0 {
				return nil, fmt.Errorf("blif: cover row outside .names: %q", line)
			}
			c := &b.covers[cur]
			switch len(fields) {
			case 1:
				if c.k != 0 {
					return nil, fmt.Errorf("blif: missing input plane in %q", line)
				}
				b.cubes = append(b.cubes, "")
				c.outVal = fields[0][0]
			case 2:
				if len(fields[0]) != int(c.k) {
					return nil, fmt.Errorf("blif: cube width mismatch in %q", line)
				}
				b.cubes = append(b.cubes, fields[0])
				c.outVal = fields[1][0]
			default:
				return nil, fmt.Errorf("blif: malformed cover row %q", line)
			}
			c.n++
		}
	}
	return b.build(strings.Clone(model))
}

// buildCoverGate converts a BLIF cover into gates. Covers in the canonical
// shapes WriteBLIF emits (single all-1 cube, sum of single-literal cubes,
// full parity tables, ...) are recognized and rebuilt as the matching gate
// kind, so a BLIF round trip preserves the netlist structure — and its
// Fingerprint — instead of lowering Nand/Nor/Xor/Xnor to AND/OR/NOT
// networks. Anything else falls back to OR-of-cube-ANDs (complemented for
// output-0 covers).
func buildCoverGate(n *Netlist, cubes []string, outVal byte, fan []ID, lutMark bool, opt BLIFOptions) (ID, error) {
	if lutMark && len(fan) > 0 && len(fan) <= MaxLutInputs {
		// The writer marked this cover as a truth-table cell: rebuild it
		// exactly, mask and all, with no alias-cover exception (a marked
		// "1 1" cover is the Lut1 identity, not a Buf).
		mask, err := coverMask(cubes, outVal, len(fan))
		if err != nil {
			return Nil, err
		}
		return n.AddLut(mask, fan...), nil
	}
	if opt.Luts && len(fan) > 0 && len(fan) <= MaxLutInputs {
		if !(len(cubes) == 1 && cubes[0] == "1" && outVal == '1') {
			// Everything except the `1 1` alias/buffer cover becomes a
			// native LUT.
			mask, err := coverMask(cubes, outVal, len(fan))
			if err != nil {
				return Nil, err
			}
			return n.AddLut(mask, fan...), nil
		}
	}
	if len(cubes) == 0 {
		// Empty cover: constant 0 (or 1 for output-0 covers).
		return n.AddConst(outVal == '0'), nil
	}
	if kind, ok := recognizeCover(cubes, len(fan)); ok {
		if outVal == '0' {
			kind = complementKind[kind]
		}
		return n.AddGate(kind, fan...), nil
	}
	var terms []ID
	for _, cube := range cubes {
		var lits []ID
		for i := 0; i < len(cube); i++ {
			switch cube[i] {
			case '1':
				lits = append(lits, fan[i])
			case '0':
				lits = append(lits, n.AddGate(Not, fan[i]))
			case '-':
			default:
				return Nil, fmt.Errorf("bad cube char %q", cube[i])
			}
		}
		switch len(lits) {
		case 0:
			// Tautological cube: cover is constant 1.
			return n.AddConst(outVal == '1'), nil
		case 1:
			if len(cubes) == 1 && cube[strings.IndexAny(cube, "01")] == '1' && outVal == '1' {
				// A pure buffer cover: materialize a Buf gate so the cover
				// output gets its own node (naming the fanin directly would
				// clobber the fanin's name).
				return n.AddGate(Buf, lits[0]), nil
			}
			terms = append(terms, lits[0])
		default:
			terms = append(terms, n.AddGate(And, lits...))
		}
	}
	var sum ID
	if len(terms) == 1 {
		sum = terms[0]
	} else {
		sum = n.AddGate(Or, terms...)
	}
	if outVal == '0' {
		sum = n.AddGate(Not, sum)
	}
	return sum, nil
}

// coverMask evaluates a cover table into a packed truth-table mask over k
// inputs: each cube's '-' positions are expanded over all rows, set rows are
// ORed across cubes, and output-0 covers are complemented.
func coverMask(cubes []string, outVal byte, k int) (uint64, error) {
	var mask uint64
	for _, cube := range cubes {
		var base, dc uint
		for i := 0; i < len(cube); i++ {
			switch cube[i] {
			case '1':
				base |= 1 << uint(i)
			case '0':
			case '-':
				dc |= 1 << uint(i)
			default:
				return 0, fmt.Errorf("bad cube char %q", cube[i])
			}
		}
		for sub := dc; ; sub = (sub - 1) & dc {
			mask |= 1 << (base | sub)
			if sub == 0 {
				break
			}
		}
	}
	if outVal == '0' {
		full := ^uint64(0)
		if k < MaxLutInputs {
			full = (uint64(1) << (1 << uint(k))) - 1
		}
		mask = ^mask & full
	}
	return mask, nil
}

// complementKind maps each recognizable gate kind to its complement, used
// when a canonical cover lists the output-0 plane.
var complementKind = map[Kind]Kind{
	Buf: Not, Not: Buf,
	And: Nand, Nand: And,
	Or: Nor, Nor: Or,
	Xor: Xnor, Xnor: Xor,
}

// recognizeCover reports the gate kind a cover computes (for an output-1
// plane) when the cube set matches one of the canonical shapes WriteBLIF
// emits. Recognition is function-exact: it only fires when the cover is
// semantically identical to the returned kind over all k inputs.
func recognizeCover(cubes []string, k int) (Kind, bool) {
	if k == 0 {
		return 0, false
	}
	if k == 1 {
		if len(cubes) == 1 {
			switch cubes[0] {
			case "1":
				return Buf, true
			case "0":
				return Not, true
			}
		}
		return 0, false
	}
	if len(cubes) == 1 {
		switch cubes[0] {
		case strings.Repeat("1", k):
			return And, true
		case strings.Repeat("0", k):
			return Nor, true
		}
		return 0, false
	}
	// Sum of k single-literal cubes, one per input position: OR (positive
	// literals) or NAND (negative literals, by De Morgan).
	if len(cubes) == k {
		single := func(lit byte) bool {
			seen := make([]bool, k)
			for _, c := range cubes {
				pos := -1
				for i := 0; i < k; i++ {
					switch c[i] {
					case lit:
						if pos >= 0 {
							return false
						}
						pos = i
					case '-':
					default:
						return false
					}
				}
				if pos < 0 || seen[pos] {
					return false
				}
				seen[pos] = true
			}
			return true
		}
		if single('1') {
			return Or, true
		}
		if single('0') {
			return Nand, true
		}
	}
	// Exhaustive parity table: 2^(k-1) distinct fully-specified rows of
	// uniform parity enumerate exactly the odd (XOR) or even (XNOR)
	// minterms.
	if k <= 16 && len(cubes) == 1<<uint(k-1) {
		parity := -1
		seen := make(map[string]bool, len(cubes))
		for _, c := range cubes {
			ones := 0
			for i := 0; i < k; i++ {
				switch c[i] {
				case '1':
					ones++
				case '0':
				default:
					return 0, false
				}
			}
			if seen[c] {
				return 0, false
			}
			seen[c] = true
			if p := ones & 1; parity == -1 {
				parity = p
			} else if parity != p {
				return 0, false
			}
		}
		if parity == 1 {
			return Xor, true
		}
		return Xnor, true
	}
	return 0, false
}
