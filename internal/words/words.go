// Package words implements Algorithm 3 of the paper (Section II-C): word
// identification from aggregated modules and symbolic word propagation
// using five-valued {0, 1, D, D̄, X} simulation.
//
// Word propagation follows the paper's guess-and-check scheme: candidate
// target words are guessed by grouping the gates driven by a word's bits by
// gate type and input port; control wires are taken from the intersection
// of the target gates' shallow fan-in cones; and each candidate is checked
// by symbolic simulation with the word's bits set to D, up to three control
// wires set to each binary combination, and everything else X. A
// propagation succeeds when every target bit evaluates to D or D̄. The
// simulation runs on the targets' fan-in cone in bitsim's D-calculus pair
// encoding, bitsim.Pairs control assignments per pass. The control-wire
// search depth (3) and candidate-set cap (12) are constants; only the
// number of wires assigned at once (Options.MaxControls) can be set.
package words

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"netlistre/internal/bitsim"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/par"
)

// Word is an ordered set of netlist signals treated as one multi-bit value.
type Word struct {
	Bits []netlist.ID
	// Origin describes how the word was discovered (module name, "propagated",
	// ...).
	Origin string
}

// Key returns a canonical identity for deduplication (order-insensitive).
func (w Word) Key() string {
	return netlist.Key(netlist.SortedIDs(w.Bits))
}

// FromModules extracts words from the port structure of aggregated modules
// (Section II-C: "bits that are inputs/outputs of aggregated modules").
func FromModules(mods []*module.Module) []Word {
	var out []Word
	seen := make(map[string]bool)
	for _, m := range mods {
		var names []string
		for name := range m.Ports {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			port := m.Ports[name]
			if len(port) < 2 {
				continue
			}
			w := Word{Bits: append([]netlist.ID(nil), port...),
				Origin: fmt.Sprintf("%s.%s", m.Name, name)}
			if !seen[w.Key()] {
				seen[w.Key()] = true
				out = append(out, w)
			}
		}
	}
	return out
}

// Propagation records one successful word propagation.
type Propagation struct {
	Source Word
	Target Word
	// Controls is the partial control-wire assignment under which the
	// propagation holds.
	Controls map[netlist.ID]bool
	// Negated[i] reports whether target bit i carries D̄ rather than D.
	Negated []bool
	// Backward is true when the target was found among the source's
	// structural predecessors.
	Backward bool
}

const (
	// controlDepth is the fan-in depth searched for control wires (the
	// paper's "small depth k").
	controlDepth = 3
	// maxControlSet caps the candidate control-wire set to keep subset
	// enumeration tractable.
	maxControlSet = 12
)

// Options tunes propagation.
type Options struct {
	// MaxControls is the number of control wires assigned simultaneously
	// (0 = the paper's 3).
	MaxControls int
	// Interrupt, when non-nil, is polled between candidate checks and
	// before each batch of bitsim.Pairs control assignments; when it
	// returns true, propagation stops and returns the words found so far.
	// With more than one worker it is called from several goroutines.
	Interrupt func() bool
	// Workers bounds the goroutines PropagateAll checks a round's words
	// on (0 = GOMAXPROCS). The caller's scheduler sets this so that the
	// stage respects the shared analysis-wide worker budget. The result
	// is the same for any worker count.
	Workers int
}

func (o *Options) defaults() {
	if o.MaxControls <= 0 {
		o.MaxControls = 3
	}
}

// checker runs propagation checks on one netlist, reusing the control-wire
// walks' visited set and buffers from check to check. It belongs to one
// goroutine; release hands the visited set back.
type checker struct {
	nl    *netlist.Netlist
	opt   Options
	seen  *netlist.VisitSet
	wires []netlist.ID
	layer []netlist.ID
}

func newChecker(nl *netlist.Netlist, opt Options) *checker {
	opt.defaults()
	return &checker{nl: nl, opt: opt, seen: nl.Visits()}
}

func (ck *checker) release() { ck.seen.Release() }

// Propagate searches for forward propagations of w.
func Propagate(nl *netlist.Netlist, w Word, opt Options) []Propagation {
	ck := newChecker(nl, opt)
	defer ck.release()
	return ck.forward(w)
}

func (ck *checker) forward(w Word) []Propagation {
	var out []Propagation
	for _, cand := range ck.guessForward(w) {
		if ck.opt.Interrupt != nil && ck.opt.Interrupt() {
			break
		}
		if p, ok := ck.check(w, cand, false); ok {
			out = append(out, p)
		}
	}
	return out
}

// PropagateBackward searches for backward propagations: words w' among the
// structural predecessors of w such that w' propagates to w.
func PropagateBackward(nl *netlist.Netlist, w Word, opt Options) []Propagation {
	ck := newChecker(nl, opt)
	defer ck.release()
	return ck.backward(w)
}

func (ck *checker) backward(w Word) []Propagation {
	var out []Propagation
	for _, cand := range ck.guessBackward(w) {
		if ck.opt.Interrupt != nil && ck.opt.Interrupt() {
			break
		}
		// Check that cand propagates to w: simulate with cand = D and
		// require w symbolic.
		if p, ok := ck.check(cand, w, true); ok {
			out = append(out, p)
		}
	}
	return out
}

// guessForward groups the fanout gates of w's bits by (kind, port). A
// group is a candidate when every bit has a gate in it and the gates are
// distinct; candidates come in (kind, port) order. A word's fanout gates
// fall into a handful of groups, so they are kept in a short slice.
func (ck *checker) guessForward(w Word) []Word {
	nl := ck.nl
	type group struct {
		kind netlist.Kind
		port int
		tgt  []netlist.ID // gate output per bit index, Nil when absent
	}
	var groups []group
	for i, b := range w.Bits {
		for _, g := range nl.Fanout(b) {
			if !nl.Kind(g).IsGate() {
				continue
			}
			for port, f := range nl.Fanin(g) {
				if f != b {
					continue
				}
				k := nl.Kind(g)
				j := slices.IndexFunc(groups, func(gr group) bool { return gr.kind == k && gr.port == port })
				if j < 0 {
					j = len(groups)
					tgt := make([]netlist.ID, len(w.Bits))
					for x := range tgt {
						tgt[x] = netlist.Nil
					}
					groups = append(groups, group{k, port, tgt})
				}
				if groups[j].tgt[i] == netlist.Nil {
					groups[j].tgt[i] = g
				}
			}
		}
	}
	slices.SortFunc(groups, func(a, b group) int {
		if a.kind != b.kind {
			return int(a.kind) - int(b.kind)
		}
		return a.port - b.port
	})
	var out []Word
	for _, gr := range groups {
		if ck.distinct(gr.tgt) {
			out = append(out, Word{Bits: gr.tgt, Origin: "guessed"})
		}
	}
	return out
}

// distinct reports whether ids holds no Nil and no repeat.
func (ck *checker) distinct(ids []netlist.ID) bool {
	ck.seen.Reset()
	for _, id := range ids {
		if id == netlist.Nil || !ck.seen.Visit(id) {
			return false
		}
	}
	return true
}

// guessBackward proposes predecessor words: for each (port) of the drivers
// of w's bits, the word of that port's fanins.
func (ck *checker) guessBackward(w Word) []Word {
	nl := ck.nl
	// All drivers must be gates of the same kind and arity.
	kind := netlist.Kind(255)
	arity := -1
	for _, b := range w.Bits {
		if !nl.Kind(b).IsGate() {
			return nil
		}
		if kind == 255 {
			kind = nl.Kind(b)
			arity = len(nl.Fanin(b))
		} else if nl.Kind(b) != kind || len(nl.Fanin(b)) != arity {
			return nil
		}
	}
	var out []Word
	for port := 0; port < arity; port++ {
		bits := make([]netlist.ID, len(w.Bits))
		for i, b := range w.Bits {
			bits[i] = nl.Fanin(b)[port]
		}
		if ck.distinct(bits) {
			out = append(out, Word{Bits: bits, Origin: "guessed-backward"})
		}
	}
	return out
}

// controlWires returns the intersection of the depth-bounded fan-in cones
// of the target gates, excluding the source word bits, ascending and capped
// at maxControlSet. Each target's walk stamps the visited set, pre-marked
// with the source bits so they are never reached. The first target's
// reached nodes are the candidates, and each later target keeps only those
// its own walk reached. The result is reused by the next call.
func (ck *checker) controlWires(src, tgt Word) []netlist.ID {
	seen, wires := ck.seen, ck.wires[:0]
	for i, g := range tgt.Bits {
		seen.Reset()
		for _, b := range src.Bits {
			seen.Visit(b)
		}
		reached := ck.layer[:0]
		root := [1]netlist.ID{g}
		frontier := root[:]
		for d := 0; d < controlDepth; d++ {
			n := len(reached)
			for _, x := range frontier {
				for _, f := range ck.nl.Fanin(x) {
					if seen.Visit(f) {
						reached = append(reached, f)
					}
				}
			}
			frontier = reached[n:]
		}
		ck.layer = reached
		if i == 0 {
			wires = append(wires, reached...)
			continue
		}
		kept := wires[:0]
		for _, x := range wires {
			if seen.Seen(x) {
				kept = append(kept, x)
			}
		}
		if wires = kept; len(wires) == 0 {
			break
		}
	}
	slices.Sort(wires)
	if len(wires) > maxControlSet {
		wires = wires[:maxControlSet]
	}
	ck.wires = wires
	return wires
}

// check runs the symbolic simulations. src bits are forced to D (cutting
// them loose from their own logic, as in the paper's local-netlist
// simulation); combinations of up to MaxControls control wires are swept
// over all binary values; all other boundary signals are X. The targets'
// fan-in cone is compiled once and each EvalPairs checks bitsim.Pairs control
// assignments, one per lane pair. The first success in enumeration order
// wins, so the result is the one a one-at-a-time sweep would return.
func (ck *checker) check(src, tgt Word, backward bool) (Propagation, bool) {
	opt := ck.opt
	wires := ck.controlWires(src, tgt)
	cone := bitsim.CompileCone(ck.nl, tgt.Bits, src.Bits)
	for _, b := range src.Bits {
		cone.Force(b, bitsim.PairD())
	}
	force := make([]bitsim.Vector, len(wires))
	var batch [bitsim.Pairs]assignment
	it := assignment{mask: -1}
	for more := true; more; {
		if opt.Interrupt != nil && opt.Interrupt() {
			return Propagation{}, false
		}
		for j := range force {
			force[j] = bitsim.Unknown()
		}
		n := 0
		for ; n < bitsim.Pairs; n++ {
			if more = it.next(len(wires), opt.MaxControls); !more {
				break
			}
			batch[n].subset = append(batch[n].subset[:0], it.subset...)
			batch[n].mask = it.mask
			lanes := uint64(3) << uint(2*n)
			for i, w := range it.subset {
				force[w].Unk &^= lanes
				if it.mask>>uint(i)&1 == 1 {
					force[w].Val |= lanes
				}
			}
		}
		if n == 0 {
			break
		}
		for j, w := range wires {
			cone.Force(w, force[j])
		}
		vals := cone.EvalPairs()
		ok := uint64(1)<<uint(2*n) - 1
		for _, v := range vals {
			ok &= v.SymbolicPairs()
		}
		if ok == 0 {
			continue
		}
		k := bits.TrailingZeros64(ok) / 2
		ctrl := make(map[netlist.ID]bool, len(batch[k].subset))
		for i, w := range batch[k].subset {
			ctrl[wires[w]] = batch[k].mask>>uint(i)&1 == 1
		}
		neg := make([]bool, len(tgt.Bits))
		for i, v := range vals {
			neg[i], _ = v.Get(2 * k)
		}
		return Propagation{
			Source:   src,
			Target:   tgt,
			Controls: ctrl,
			Negated:  neg,
			Backward: backward,
		}, true
	}
	return Propagation{}, false
}

// assignment is one control assignment: wire subset[i] takes bit i of mask.
type assignment struct {
	subset []int
	mask   int
}

// next advances a over n control wires, at most maxSize of them at once,
// in the order the check tries assignments: no controls first, then
// subsets of size 1..maxSize in lexicographic order, each with its masks
// ascending. Start from assignment{mask: -1}.
func (a *assignment) next(n, maxSize int) bool {
	if a.mask+1 < 1<<uint(len(a.subset)) {
		a.mask++
		return true
	}
	a.mask = 0
	size := len(a.subset)
	i := size - 1
	for i >= 0 && a.subset[i] == n-size+i {
		i--
	}
	if i >= 0 {
		a.subset[i]++
		for j := i + 1; j < size; j++ {
			a.subset[j] = a.subset[j-1] + 1
		}
		return true
	}
	if size >= maxSize || size >= n {
		return false
	}
	a.subset = a.subset[:0]
	for j := 0; j <= size; j++ {
		a.subset = append(a.subset, j)
	}
	return true
}

// PropagateAll iteratively expands a word set with forward and backward
// propagation until a fixed point or the given round limit. The checks of
// one word depend on that word alone, so each round's words are checked
// on up to Workers goroutines, one checker each, and the results are
// merged in the round's word order: the words and propagations are those
// of a serial run at any worker count.
func PropagateAll(nl *netlist.Netlist, seeds []Word, rounds int, opt Options) ([]Word, []Propagation) {
	seen := make(map[string]bool)
	var all []Word
	var frontier []Word
	push := func(w Word) bool {
		k := w.Key()
		if seen[k] {
			return false
		}
		seen[k] = true
		all = append(all, w)
		frontier = append(frontier, w)
		return true
	}
	for _, w := range seeds {
		push(w)
	}
	var props []Propagation
	for r := 0; r < rounds && len(frontier) > 0; r++ {
		work := frontier
		frontier = nil
		for _, c := range checkAll(nl, work, opt) {
			if !c.done {
				return all, props // interrupted
			}
			for _, p := range c.forward {
				props = append(props, p)
				t := p.Target
				t.Origin = "propagated"
				push(t)
			}
			for _, p := range c.backward {
				props = append(props, p)
				s := p.Source
				s.Origin = "propagated-backward"
				push(s)
			}
		}
	}
	return all, props
}

// checked holds the propagations found from one word; done is false for
// a word an interrupt left unchecked.
type checked struct {
	forward, backward []Propagation
	done              bool
}

// checkAll checks the words of one round on up to opt.Workers goroutines,
// each with its own checker. Interrupt is polled before each word is
// taken; once it fires, no further word is taken, and the words left
// untaken are not done.
func checkAll(nl *netlist.Netlist, work []Word, opt Options) []checked {
	res := make([]checked, len(work))
	par.Do(len(work), opt.Workers, opt.Interrupt, func(claim func() (int, bool)) {
		ck := newChecker(nl, opt)
		defer ck.release()
		for i, ok := claim(); ok; i, ok = claim() {
			res[i] = checked{ck.forward(work[i]), ck.backward(work[i]), true}
		}
	})
	return res
}
