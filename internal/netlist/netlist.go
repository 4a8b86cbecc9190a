// Package netlist provides the gate-level netlist intermediate
// representation used by every analysis in this repository.
//
// A netlist is a flat "sea of gates": primary inputs, single-output
// combinational gates, and latches (D flip-flops). There is no module
// hierarchy — recovering structure from this representation is exactly the
// reverse-engineering problem the paper addresses. Nodes are identified by
// dense integer IDs; a node's output signal is identified with the node
// itself, which is valid because every primitive has exactly one output.
package netlist

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
)

// ID identifies a node in a Netlist. IDs are dense and start at 0.
type ID int32

// Nil is the invalid node ID.
const Nil ID = -1

// Kind enumerates the primitive node types.
type Kind uint8

// Primitive node kinds. And/Or/Nand/Nor/Xor/Xnor accept two or more fanins;
// Not and Buf accept exactly one; Latch has exactly one fanin (its D input).
const (
	Const0 Kind = iota
	Const1
	Input
	And
	Or
	Nand
	Nor
	Xor
	Xnor
	Not
	Buf
	Latch
	// Lut is a k-input single-output truth-table cell (k <= MaxLutInputs).
	// Its function is the packed Node.Mask: bit i of the mask is the output
	// for the input assignment where Fanin[j] carries bit j of i. Lut is
	// appended after Latch so the numeric values of the primitive-gate kinds
	// (which are baked into serialized fingerprints) stay stable.
	Lut
	numKinds
)

// MaxLutInputs is the largest LUT arity the packed uint64 mask can hold.
const MaxLutInputs = 6

var kindNames = [numKinds]string{
	"const0", "const1", "input", "and", "or", "nand", "nor", "xor", "xnor",
	"not", "buf", "dff", "lut",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsGate reports whether k is a combinational gate (excludes inputs,
// constants and latches). Gates are the unit of the paper's coverage metric.
func (k Kind) IsGate() bool { return k >= And && k <= Buf || k == Lut }

// IsComb reports whether a node of kind k computes a combinational function
// of its fanins (gates and constants, but not inputs or latches).
func (k Kind) IsComb() bool { return k.IsGate() || k == Const0 || k == Const1 }

// IsConeInput reports whether a node of kind k terminates combinational
// fan-in cone traversal: primary inputs and latch outputs.
func (k Kind) IsConeInput() bool { return k == Input || k == Latch }

// Node is a single primitive in the netlist.
type Node struct {
	Kind  Kind
	Name  string // optional; always set for inputs
	Fanin []ID
	// Mask is the packed truth table of a Lut node (zero for every other
	// kind): bit i is the output value for the fanin assignment encoded by
	// the bits of i, with Fanin[0] the least significant variable. Only the
	// low 2^len(Fanin) bits are meaningful and the rest must be zero.
	Mask uint64
}

// UnaryKind reports the unary primitive a node behaves as: Not and Buf
// themselves, plus 1-input LUTs carrying the inverter (0b01) or identity
// (0b10) mask. Structural passes that trace through inverter/buffer chains
// use it so LUT-mapped netlists traverse the same way as gate-level ones.
func (n *Node) UnaryKind() (Kind, bool) {
	switch {
	case n.Kind == Not || n.Kind == Buf:
		return n.Kind, true
	case n.Kind == Lut && len(n.Fanin) == 1:
		switch n.Mask {
		case 1:
			return Not, true
		case 2:
			return Buf, true
		}
	}
	return n.Kind, false
}

// Netlist is a flat gate-level circuit.
//
// The zero value is an empty netlist ready for use; use the Add* methods to
// populate it. Netlists are not safe for concurrent mutation.
type Netlist struct {
	Name string

	nodes   []Node
	fanout  [][]ID
	outputs []Port
	byName  map[string]ID
}

// Port names a primary output and the node driving it.
type Port struct {
	Name   string
	Driver ID
}

// New returns an empty netlist with the given name.
func New(name string) *Netlist {
	return &Netlist{Name: name, byName: make(map[string]ID)}
}

// Grow reserves room for k more nodes (and for names more names, in a
// netlist with no names yet), so a builder that knows its size up front
// does not regrow the tables.
func (n *Netlist) Grow(k, names int) {
	n.nodes = slices.Grow(n.nodes, k)
	n.fanout = slices.Grow(n.fanout, k)
	if len(n.byName) == 0 {
		n.byName = make(map[string]ID, names)
	}
}

// Len returns the number of nodes in the netlist.
func (n *Netlist) Len() int { return len(n.nodes) }

// Node returns the node with the given ID. The returned pointer stays valid
// until the next Add* call.
func (n *Netlist) Node(id ID) *Node { return &n.nodes[id] }

// Kind returns the kind of node id.
func (n *Netlist) Kind(id ID) Kind { return n.nodes[id].Kind }

// Fanin returns the fanin list of node id. The slice must not be mutated.
func (n *Netlist) Fanin(id ID) []ID { return n.nodes[id].Fanin }

// Fanout returns the IDs of the nodes that have id as a fanin. The slice
// must not be mutated.
func (n *Netlist) Fanout(id ID) []ID { return n.fanout[id] }

// NameOf returns the name of node id, or a synthesized placeholder when the
// node is anonymous.
func (n *Netlist) NameOf(id ID) string {
	if name := n.nodes[id].Name; name != "" {
		return name
	}
	return "n" + strconv.Itoa(int(id))
}

// FindByName returns the node with the given name, or Nil.
func (n *Netlist) FindByName(name string) ID {
	if id, ok := n.byName[name]; ok {
		return id
	}
	return Nil
}

func (n *Netlist) add(node Node) ID {
	id := ID(len(n.nodes))
	n.nodes = append(n.nodes, node)
	n.fanout = append(n.fanout, nil)
	for _, f := range node.Fanin {
		if f == Nil {
			// Only a latch D placeholder awaiting SetLatchD (readers and
			// rewriters use it for forward references); Validate flags any
			// Nil fanin that survives construction.
			continue
		}
		n.fanout[f] = append(n.fanout[f], id)
	}
	if node.Name != "" {
		if n.byName == nil {
			n.byName = make(map[string]ID)
		}
		n.byName[node.Name] = id
	}
	return id
}

// AddInput adds a named primary input.
func (n *Netlist) AddInput(name string) ID {
	return n.add(Node{Kind: Input, Name: name})
}

// AddConst adds a constant node with the given value.
func (n *Netlist) AddConst(v bool) ID {
	k := Const0
	if v {
		k = Const1
	}
	return n.add(Node{Kind: k})
}

// AddGate adds a combinational gate. It panics if the kind or arity is
// invalid: this is a programming error in the circuit builder, not a data
// error.
func (n *Netlist) AddGate(kind Kind, fanin ...ID) ID {
	switch {
	case !kind.IsGate():
		panic(fmt.Sprintf("netlist: AddGate with non-gate kind %v", kind))
	case kind == Lut:
		panic("netlist: AddGate with Lut kind; use AddLut to supply the mask")
	case kind == Not || kind == Buf:
		if len(fanin) != 1 {
			panic(fmt.Sprintf("netlist: %v requires 1 fanin, got %d", kind, len(fanin)))
		}
	case len(fanin) < 2:
		panic(fmt.Sprintf("netlist: %v requires >=2 fanins, got %d", kind, len(fanin)))
	}
	for _, f := range fanin {
		if f < 0 || int(f) >= len(n.nodes) {
			panic(fmt.Sprintf("netlist: fanin %d out of range", f))
		}
	}
	return n.add(Node{Kind: kind, Fanin: append([]ID(nil), fanin...)})
}

// AddNamedGate is AddGate with an explicit output net name.
func (n *Netlist) AddNamedGate(name string, kind Kind, fanin ...ID) ID {
	id := n.AddGate(kind, fanin...)
	n.SetName(id, name)
	return id
}

// AddLut adds a k-input truth-table cell (1 <= k <= MaxLutInputs). Bit i of
// mask is the output for the fanin assignment encoded by the bits of i, with
// fanin[0] the least significant variable. It panics on arity violations and
// on mask bits beyond 2^k, mirroring AddGate's contract.
func (n *Netlist) AddLut(mask uint64, fanin ...ID) ID {
	k := len(fanin)
	if k < 1 || k > MaxLutInputs {
		panic(fmt.Sprintf("netlist: lut requires 1..%d fanins, got %d", MaxLutInputs, k))
	}
	if k < MaxLutInputs && mask>>(1<<uint(k)) != 0 {
		panic(fmt.Sprintf("netlist: lut mask %#x has bits beyond 2^%d rows", mask, k))
	}
	for _, f := range fanin {
		if f < 0 || int(f) >= len(n.nodes) {
			panic(fmt.Sprintf("netlist: fanin %d out of range", f))
		}
	}
	return n.add(Node{Kind: Lut, Fanin: append([]ID(nil), fanin...), Mask: mask})
}

// AddNamedLut is AddLut with an explicit output net name.
func (n *Netlist) AddNamedLut(name string, mask uint64, fanin ...ID) ID {
	id := n.AddLut(mask, fanin...)
	n.SetName(id, name)
	return id
}

// AddGateLike adds a combinational gate with the kind — and, for Lut nodes,
// the mask — of the template node over the given fanins. It is the building
// block for passes that rebuild netlists node by node (simplify, partition
// extraction, mutation) and must work for every gate kind.
func (n *Netlist) AddGateLike(tmpl *Node, fanin ...ID) ID {
	if tmpl.Kind == Lut {
		return n.AddLut(tmpl.Mask, fanin...)
	}
	return n.AddGate(tmpl.Kind, fanin...)
}

// AddLatch adds a D flip-flop whose D input is d.
func (n *Netlist) AddLatch(d ID) ID {
	return n.add(Node{Kind: Latch, Fanin: []ID{d}})
}

// AddNamedLatch adds a named D flip-flop.
func (n *Netlist) AddNamedLatch(name string, d ID) ID {
	id := n.AddLatch(d)
	n.SetName(id, name)
	return id
}

// SetName assigns a name to node id.
func (n *Netlist) SetName(id ID, name string) {
	n.nodes[id].Name = name
	if n.byName == nil {
		n.byName = make(map[string]ID)
	}
	n.byName[name] = id
}

// SetLatchD rewires the D input of latch id. It is the only permitted
// mutation of an existing node and exists so builders can create latches
// before the logic that feeds them (e.g. for feedback paths).
func (n *Netlist) SetLatchD(id, d ID) {
	if n.nodes[id].Kind != Latch {
		panic("netlist: SetLatchD on non-latch")
	}
	old := n.nodes[id].Fanin
	if len(old) == 1 && old[0] != Nil {
		n.removeFanout(old[0], id)
	}
	n.nodes[id].Fanin = []ID{d}
	n.fanout[d] = append(n.fanout[d], id)
}

func (n *Netlist) removeFanout(from, to ID) {
	fo := n.fanout[from]
	for i, x := range fo {
		if x == to {
			n.fanout[from] = append(fo[:i], fo[i+1:]...)
			return
		}
	}
}

// MarkOutput declares node id to be a primary output with the given name.
func (n *Netlist) MarkOutput(name string, id ID) {
	n.outputs = append(n.outputs, Port{Name: name, Driver: id})
}

// Outputs returns the primary output ports in declaration order.
func (n *Netlist) Outputs() []Port { return n.outputs }

// Inputs returns the IDs of all primary inputs in creation order.
func (n *Netlist) Inputs() []ID {
	var ids []ID
	for i, node := range n.nodes {
		if node.Kind == Input {
			ids = append(ids, ID(i))
		}
	}
	return ids
}

// Latches returns the IDs of all latches in creation order.
func (n *Netlist) Latches() []ID {
	var ids []ID
	for i, node := range n.nodes {
		if node.Kind == Latch {
			ids = append(ids, ID(i))
		}
	}
	return ids
}

// Gates returns the IDs of all combinational gates in creation order.
func (n *Netlist) Gates() []ID {
	var ids []ID
	for i, node := range n.nodes {
		if node.Kind.IsGate() {
			ids = append(ids, ID(i))
		}
	}
	return ids
}

// Stats summarizes a netlist for reporting (Table 2 of the paper).
type Stats struct {
	Inputs  int
	Outputs int
	Gates   int
	Latches int
}

// Stats returns the inventory counts of the netlist.
func (n *Netlist) Stats() Stats {
	var s Stats
	for _, node := range n.nodes {
		switch {
		case node.Kind == Input:
			s.Inputs++
		case node.Kind == Latch:
			s.Latches++
		case node.Kind.IsGate():
			s.Gates++
		}
	}
	s.Outputs = len(n.outputs)
	return s
}

// Check validates internal consistency and returns an error describing the
// first problem found. It is intended for tests and after deserialization.
func (n *Netlist) Check() error {
	if ps := n.problems(1); len(ps) > 0 {
		return ps[0]
	}
	return nil
}

// Validate reports every structural problem in the netlist joined into one
// error (errors.Join), or nil when the netlist is well-formed. It catches
// dangling fanins (Nil or out-of-range references), wrong gate arities,
// latches with an unset D input, dangling output drivers, and combinational
// cycles. Analyze calls it before running the portfolio so malformed inputs
// yield a report with a validation error instead of a panic deep inside an
// analysis.
func (n *Netlist) Validate() error {
	const maxProblems = 64 // enough to be useful, bounded to stay readable
	ps := n.problems(maxProblems)
	if len(ps) == 0 {
		return nil
	}
	return errors.Join(ps...)
}

// problems collects up to limit structural problems. The combinational-cycle
// check runs only when the node-local checks pass: cycle detection walks
// fanins and must not chase dangling references.
func (n *Netlist) problems(limit int) []error {
	var ps []error
	add := func(err error) bool {
		ps = append(ps, err)
		return len(ps) >= limit
	}
	for i, node := range n.nodes {
		id := ID(i)
		switch node.Kind {
		case Input, Const0, Const1:
			if len(node.Fanin) != 0 {
				if add(fmt.Errorf("node %d (%v) has %d fanins, want 0", id, node.Kind, len(node.Fanin))) {
					return ps
				}
			}
		case Not, Buf, Latch:
			if len(node.Fanin) != 1 {
				if node.Kind == Latch {
					if add(fmt.Errorf("latch %d (%s) has unset D input", id, n.NameOf(id))) {
						return ps
					}
				} else if add(fmt.Errorf("node %d (%v) has %d fanins, want 1", id, node.Kind, len(node.Fanin))) {
					return ps
				}
			}
		case And, Or, Nand, Nor, Xor, Xnor:
			if len(node.Fanin) < 2 {
				if add(fmt.Errorf("node %d (%v) has %d fanins, want >=2", id, node.Kind, len(node.Fanin))) {
					return ps
				}
			}
		case Lut:
			k := len(node.Fanin)
			if k < 1 || k > MaxLutInputs {
				if add(fmt.Errorf("node %d (lut) has %d fanins, want 1..%d", id, k, MaxLutInputs)) {
					return ps
				}
			} else if k < MaxLutInputs && node.Mask>>(1<<uint(k)) != 0 {
				if add(fmt.Errorf("node %d (lut) mask %#x has bits beyond 2^%d rows", id, node.Mask, k)) {
					return ps
				}
			}
		default:
			if add(fmt.Errorf("node %d has invalid kind %d", id, node.Kind)) {
				return ps
			}
		}
		if node.Kind != Lut && node.Mask != 0 {
			if add(fmt.Errorf("node %d (%v) has non-zero lut mask %#x", id, node.Kind, node.Mask)) {
				return ps
			}
		}
		for _, f := range node.Fanin {
			if f < 0 || int(f) >= len(n.nodes) {
				if f == Nil && node.Kind == Latch {
					if add(fmt.Errorf("latch %d (%s) has unset D input", id, n.NameOf(id))) {
						return ps
					}
				} else if add(fmt.Errorf("node %d has dangling fanin %d", id, f)) {
					return ps
				}
			}
		}
	}
	for _, p := range n.outputs {
		if p.Driver < 0 || int(p.Driver) >= len(n.nodes) {
			if add(fmt.Errorf("output %q has dangling driver %d", p.Name, p.Driver)) {
				return ps
			}
		}
	}
	if len(ps) > 0 {
		return ps // fanins unsafe to traverse; skip the cycle check
	}
	if cyc := n.findCombCycle(); cyc != Nil {
		add(fmt.Errorf("combinational cycle through node %d (%s)", cyc, n.NameOf(cyc)))
	}
	return ps
}

// findCombCycle returns a node on a combinational cycle, or Nil. Latches
// break cycles.
func (n *Netlist) findCombCycle() ID {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, len(n.nodes))
	// Iterative DFS to avoid stack overflow on deep netlists.
	type frame struct {
		id  ID
		idx int
	}
	var stack []frame
	for start := range n.nodes {
		if color[start] != white || n.nodes[start].Kind == Latch {
			continue
		}
		stack = append(stack[:0], frame{ID(start), 0})
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			node := &n.nodes[f.id]
			if node.Kind == Latch || f.idx >= len(node.Fanin) {
				color[f.id] = black
				stack = stack[:len(stack)-1]
				continue
			}
			child := node.Fanin[f.idx]
			f.idx++
			if n.nodes[child].Kind == Latch {
				continue
			}
			switch color[child] {
			case white:
				color[child] = gray
				stack = append(stack, frame{child, 0})
			case gray:
				return child
			}
		}
	}
	return Nil
}

// Clone returns a deep copy of the netlist with identical node IDs. It is
// used by analyses that append scratch logic (e.g. QBF reference modules)
// without disturbing the original.
func (n *Netlist) Clone() *Netlist {
	c := New(n.Name)
	c.nodes = make([]Node, len(n.nodes))
	for i, node := range n.nodes {
		c.nodes[i] = Node{Kind: node.Kind, Name: node.Name,
			Fanin: append([]ID(nil), node.Fanin...), Mask: node.Mask}
	}
	c.fanout = make([][]ID, len(n.fanout))
	for i, fo := range n.fanout {
		c.fanout[i] = append([]ID(nil), fo...)
	}
	c.outputs = append([]Port(nil), n.outputs...)
	for name, id := range n.byName {
		c.byName[name] = id
	}
	return c
}
