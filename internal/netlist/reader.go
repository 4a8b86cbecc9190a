package netlist

// The one builder both gate-level readers (ReadVerilog, ReadBLIF) build
// through. A reader interns every net it names to a dense index and
// records at most one driver per net: an input, a latch, a gate, a LUT, a
// constant, an alias or a BLIF cover. A second driver of a net is an error,
// never a silent choice. build then creates the nodes in one fixed order:
// inputs in declaration order, latches in file order (their D left Nil so
// feedback resolves), every root net (a cell's output, an output port, a
// declared wire) in sorted-name order, each after its fanins depth first,
// then the latch D inputs, and last the output ports. Node IDs, names and
// fingerprints therefore depend only on what the text describes.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Errors the readers wrap: a net given a second driver, and a literal
// whose value does not fit 64 bits.
var (
	errDrivenTwice = errors.New("driven twice")
	errOverflow    = errors.New("overflows 64 bits")
)

type driveKind uint8

const (
	undriven driveKind = iota
	drvInput
	drvLatch  // args: D
	drvGate   // gate kind; args: fanins
	drvLut    // mask; args: fanins
	drvConst0 // constant 0
	drvConst1 // constant 1
	drvAlias  // args: the aliased net, built as a named Buf
	drvCover  // cover: index into covers; args: fanins
)

type driver struct {
	kind   driveKind
	gate   Kind
	off, n int32 // args[off : off+n]
	cover  int32
	mask   uint64
}

// blifCover is the cover table of one .names line over k inputs: its
// rows' input planes and output value, and whether the line carried the
// "# lut" marker.
type blifCover struct {
	off, n int32 // cubes[off : off+n]
	k      int32
	outVal byte
	lut    bool
}

// Net states in build. A net is marked root by its reader, and is
// unresolved, on the resolution stack (reaching it again is a cycle) or
// resolved (ids holds its node).
const (
	resolvedMask uint8 = 3
	onStack      uint8 = 1
	resolved     uint8 = 2
	isRoot       uint8 = 4
)

type builder struct {
	format string // error prefix: "verilog" or "blif"
	index  map[string]int32
	names  []string
	drv    []driver
	state  []uint8
	args   []int32

	inputs, latches, outputs []int32

	covers []blifCover
	cubes  []string
	opt    BLIFOptions

	nl  *Netlist
	ids []ID
	fan []ID // scratch fanin list of the node being added
}

func newBuilder(format string, sizeHint int) *builder {
	return &builder{format: format, index: make(map[string]int32, sizeHint)}
}

// net returns the index of the named net, interning it on first use. The
// name is copied, so a netlist does not keep its source text alive.
func (b *builder) net(name string) int32 {
	if i, ok := b.index[name]; ok {
		return i
	}
	name = strings.Clone(name)
	i := int32(len(b.names))
	b.index[name] = i
	b.names = append(b.names, name)
	b.drv = append(b.drv, driver{})
	b.state = append(b.state, 0)
	return i
}

// drive records d as the driver of net, with fanins ins.
func (b *builder) drive(net int32, d driver, ins ...int32) error {
	if b.drv[net].kind != undriven {
		return fmt.Errorf("%s: net %q %w", b.format, b.names[net], errDrivenTwice)
	}
	d.off, d.n = int32(len(b.args)), int32(len(ins))
	b.args = append(b.args, ins...)
	b.drv[net] = d
	switch d.kind {
	case drvInput:
		b.inputs = append(b.inputs, net)
	case drvLatch:
		b.latches = append(b.latches, net)
	case drvGate, drvLut, drvCover:
		b.root(net) // every cell is built, whether read or not
	}
	return nil
}

// root marks net to be built even when nothing reads it, so a root with
// no driver is an error.
func (b *builder) root(net int32) { b.state[net] |= isRoot }

// output declares net an output port, a root.
func (b *builder) output(net int32) {
	b.outputs = append(b.outputs, net)
	b.root(net)
}

// build creates the netlist in the order the file comment describes.
func (b *builder) build(name string) (*Netlist, error) {
	n := New(name)
	n.Grow(len(b.names), len(b.names))
	b.nl = n
	b.ids = make([]ID, len(b.names))
	for _, in := range b.inputs {
		b.ids[in] = n.AddInput(b.names[in])
		b.state[in] |= resolved
	}
	for _, q := range b.latches {
		b.ids[q] = n.AddNamedLatch(b.names[q], Nil)
		b.state[q] |= resolved
	}
	var roots []int32
	for net, st := range b.state {
		if st&isRoot != 0 {
			roots = append(roots, int32(net))
		}
	}
	slices.SortFunc(roots, func(x, y int32) int { return strings.Compare(b.names[x], b.names[y]) })
	for _, net := range roots {
		if _, err := b.resolve(net); err != nil {
			return nil, err
		}
	}
	for _, q := range b.latches {
		d, err := b.resolve(b.args[b.drv[q].off])
		if err != nil {
			return nil, err
		}
		n.SetLatchD(b.ids[q], d)
	}
	for _, out := range b.outputs {
		n.MarkOutput(b.names[out], b.ids[out])
	}
	return n, nil
}

// resolve returns the node of net, building it after its fanins.
func (b *builder) resolve(net int32) (ID, error) {
	switch b.state[net] & resolvedMask {
	case resolved:
		return b.ids[net], nil
	case onStack:
		return Nil, fmt.Errorf("%s: combinational cycle through net %q", b.format, b.names[net])
	}
	d := &b.drv[net]
	name := b.names[net]
	if d.kind == undriven {
		return Nil, fmt.Errorf("%s: net %q has no driver", b.format, name)
	}
	b.state[net] |= onStack
	ins := b.args[d.off : d.off+d.n]
	for _, in := range ins {
		if _, err := b.resolve(in); err != nil {
			return Nil, err
		}
	}
	fan := b.fan[:0]
	for _, in := range ins {
		fan = append(fan, b.ids[in])
	}
	b.fan = fan
	var id ID
	switch d.kind {
	case drvGate:
		id = b.nl.AddNamedGate(name, d.gate, fan...)
	case drvAlias:
		id = b.nl.AddNamedGate(name, Buf, fan...)
	case drvLut:
		id = b.nl.AddNamedLut(name, d.mask, fan...)
	case drvConst0, drvConst1:
		id = b.nl.AddConst(d.kind == drvConst1)
		b.nl.SetName(id, name)
	case drvCover:
		c := &b.covers[d.cover]
		var err error
		id, err = buildCoverGate(b.nl, b.cubes[c.off:c.off+c.n], c.outVal, fan, c.lut, b.opt)
		if err != nil {
			return Nil, fmt.Errorf("blif: cover for %q: %w", name, err)
		}
		b.nl.SetName(id, name)
	}
	b.ids[net] = id
	b.state[net] = b.state[net]&^resolvedMask | resolved
	return id, nil
}

// readText reads all of r into one string.
func readText(r io.Reader) (string, error) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// GateKind returns the primitive gate kind named s ("and" ... "buf"), the
// names WriteVerilog gives them.
func GateKind(s string) (Kind, bool) {
	for k := And; k <= Buf; k++ {
		if kindNames[k] == s {
			return k, true
		}
	}
	return 0, false
}

// MaxLiteralWidth is the widest size a sized literal may declare: the
// widest register the rtl dialect declares (reg [4095:0]).
const MaxLiteralWidth = 4096

// ParseLiteral parses a Verilog number: <size>'<base><digits>, the same
// without the size, or plain decimal digits. The base is b, d or h in
// either case, or absent for decimal; any other letter is an error. Digits
// may be separated by '_'. It returns the size (0 when none is written),
// which must lie in 1..MaxLiteralWidth, and the value, which must fit 64
// bits.
func ParseLiteral(s string) (width int, val uint64, err error) {
	size, body, sized := strings.Cut(s, "'")
	if !sized {
		size, body = "", s
	}
	bad := func() (int, uint64, error) { return 0, 0, fmt.Errorf("bad literal %q", s) }
	if size != "" {
		width, err = strconv.Atoi(size)
		if err != nil || size[0] < '0' || size[0] > '9' || width < 1 || width > MaxLiteralWidth {
			return bad()
		}
	}
	base := uint64(10)
	if sized && body != "" {
		switch body[0] {
		case 'b', 'B':
			base, body = 2, body[1:]
		case 'd', 'D':
			body = body[1:]
		case 'h', 'H':
			base, body = 16, body[1:]
		}
	}
	if body == "" {
		return bad()
	}
	for i := 0; i < len(body); i++ {
		c := body[i]
		var d uint64
		switch {
		case c == '_':
			continue
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return bad()
		}
		if d >= base {
			return bad()
		}
		if val > (math.MaxUint64-d)/base {
			return 0, 0, fmt.Errorf("literal %q %w", s, errOverflow)
		}
		val = val*base + d
	}
	return width, val, nil
}
