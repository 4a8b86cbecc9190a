package netlist

// This file holds the repository's two-valued simulator. EvalWord is the
// gate/LUT kernel: each uint64 carries a signal's value in 64 independent
// runs, a gate folds its fanin words with one word operation per fanin, and
// a LUT cell is the Shannon expansion of its mask with word multiplexers.
// wordSim applies the kernel to a whole netlist: settle evaluates the
// combinational logic in topological order and step adds the latch update
// of one clock cycle. Eval and Step (and through them the dynamic trace
// recorder), the differential matcher's simulation signatures and the LUT
// mapper's mask tabulation all run on it.

// EvalWord evaluates one combinational node of kind k over 64 lanes: in
// holds the fanin words, and mask is the truth table of a Lut (row r of the
// table is the fanin assignment with in[i] = bit i of r). It panics for
// non-combinational kinds.
func EvalWord(k Kind, mask uint64, in []uint64) uint64 {
	switch k {
	case Const0:
		return 0
	case Const1:
		return ^uint64(0)
	case Not:
		return ^in[0]
	case Buf:
		return in[0]
	case And, Nand:
		v := ^uint64(0)
		for _, w := range in {
			v &= w
		}
		if k == Nand {
			v = ^v
		}
		return v
	case Or, Nor:
		var v uint64
		for _, w := range in {
			v |= w
		}
		if k == Nor {
			v = ^v
		}
		return v
	case Xor, Xnor:
		var v uint64
		for _, w := range in {
			v ^= w
		}
		if k == Xnor {
			v = ^v
		}
		return v
	case Lut:
		return lutWord(mask, in)
	}
	panic("netlist: EvalWord on non-combinational kind " + k.String())
}

// lutWord is the Shannon expansion of mask over the variables in: the
// cofactors for the last variable 0 and 1 are expanded over the others and
// selected lane by lane with one word mux.
func lutWord(mask uint64, in []uint64) uint64 {
	j := len(in)
	if j == 0 {
		return -(mask & 1)
	}
	lo := lutWord(mask, in[:j-1])
	hi := lutWord(mask>>(uint(1)<<uint(j-1)), in[:j-1])
	s := in[j-1]
	return s&hi | ^s&lo
}

// wordSim simulates a netlist on 64 lanes, one word per node.
type wordSim struct {
	nl      *Netlist
	order   []ID // TopoOrder
	latches []ID
	vals    []uint64 // indexed by node ID
	next    []uint64 // the latches' D words, parallel to latches
	buf     []uint64
}

func (n *Netlist) newWordSim() *wordSim {
	latches := n.Latches()
	return &wordSim{
		nl:      n,
		order:   n.TopoOrder(),
		latches: latches,
		vals:    make([]uint64, len(n.nodes)),
		next:    make([]uint64, len(latches)),
	}
}

// load sets every input and latch that m names to its value in all lanes.
// Entries for other nodes are ignored.
func (s *wordSim) load(m map[ID]bool) {
	for id, v := range m {
		if id >= 0 && int(id) < len(s.vals) && s.nl.nodes[id].Kind.IsConeInput() {
			s.vals[id] = 0
			if v {
				s.vals[id] = ^uint64(0)
			}
		}
	}
}

// settle evaluates every combinational node in topological order; inputs
// and latches keep the words s.vals already holds.
func (s *wordSim) settle() {
	for _, id := range s.order {
		node := &s.nl.nodes[id]
		if node.Kind.IsConeInput() {
			continue
		}
		s.buf = s.buf[:0]
		for _, f := range node.Fanin {
			s.buf = append(s.buf, s.vals[f])
		}
		s.vals[id] = EvalWord(node.Kind, node.Mask, s.buf)
	}
}

// step runs one clock cycle: it settles the combinational logic, hands the
// settled words to observe, and then loads every latch with the word its D
// input settled to, all latches at once. A latch whose D is still Nil (the
// parsers create such placeholders before the D net is known) holds its
// value.
func (s *wordSim) step(observe func(vals []uint64)) {
	s.settle()
	observe(s.vals)
	for i, l := range s.latches {
		s.next[i] = s.vals[l]
		if d := s.nl.nodes[l].Fanin[0]; d != Nil {
			s.next[i] = s.vals[d]
		}
	}
	for i, l := range s.latches {
		s.vals[l] = s.next[i]
	}
}

// lane0 returns lane 0 of every node's word.
func (s *wordSim) lane0() []bool {
	out := make([]bool, len(s.vals))
	for id, w := range s.vals {
		out[id] = w&1 == 1
	}
	return out
}

// Eval computes the value of every node given an assignment to the boundary
// signals. boundary must supply a value for every primary input and latch;
// missing entries default to false. The returned slice is indexed by node
// ID.
func (n *Netlist) Eval(boundary map[ID]bool) []bool {
	s := n.newWordSim()
	s.load(boundary)
	s.settle()
	return s.lane0()
}

// State holds the latch values of a netlist between sequential steps.
type State map[ID]bool

// NewState returns an all-zero state for the netlist.
func (n *Netlist) NewState() State { return make(State) }

// Step performs one clock cycle: it evaluates the combinational logic under
// the current state and input assignment, returns the node values, and
// advances every latch to the value of its D input. A latch whose D input
// is still unset holds its value.
func (n *Netlist) Step(st State, inputs map[ID]bool) []bool {
	s := n.newWordSim()
	s.load(st)
	s.load(inputs)
	var vals []bool
	s.step(func([]uint64) { vals = s.lane0() })
	for _, l := range s.latches {
		st[l] = s.vals[l]&1 == 1
	}
	return vals
}

// OutputValues extracts the primary output values from an Eval/Step result.
func (n *Netlist) OutputValues(vals []bool) map[string]bool {
	out := make(map[string]bool, len(n.outputs))
	for _, p := range n.outputs {
		out[p.Name] = vals[p.Driver]
	}
	return out
}
