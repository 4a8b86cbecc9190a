package rtl

// The round-trip equivalence checker. A pure-passthrough emission must
// elaborate to a netlist isomorphic to the original, so it is compared
// strictly by netlist.Fingerprint. Once templates or always blocks are
// involved the expansion is functionally — not structurally — equal, so
// the check switches to bitsim: identical stimulus on both netlists,
// comparing every primary output and every latch next-state, exhaustively
// when the state space is small and with random patterns plus exhaustive
// small-cone truth tables otherwise. A small cone is one whose support
// fits a truth table; the supports come from the netlist's one bounded
// support pass, Netlist.BoundedSupports(truth.MaxVars).

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"

	"netlistre/internal/bitsim"
	"netlistre/internal/netlist"
	"netlistre/internal/truth"
)

// exhaustiveVars is the input+state count up to which the bitsim path
// enumerates every pattern (2^12 = 64 bit-parallel rounds).
const exhaustiveVars = 12

// randomRounds is the number of 64-pattern rounds on the random path.
const randomRounds = 16

// maxMismatchReports bounds EquivResult.Mismatches.
const maxMismatchReports = 8

// Check re-elaborates an emission and verifies it against the original.
// A non-nil error means the check could not run (unparseable emission);
// an inequivalent design is reported in the result, not as an error.
func Check(orig *netlist.Netlist, er *EmitResult) (*EquivResult, error) {
	if orig == nil || er == nil {
		return nil, fmt.Errorf("rtl: nil arguments to Check")
	}
	if len(er.names) != orig.Len() {
		return nil, fmt.Errorf("rtl: emission names %d nodes, netlist has %d", len(er.names), orig.Len())
	}
	elab, err := elaborate(string(er.Verilog))
	if err != nil {
		return nil, fmt.Errorf("rtl: emitted RTL does not elaborate: %w", err)
	}
	res := &EquivResult{}
	if er.Stats.Instances == 0 && er.Stats.AlwaysBlocks == 0 {
		rc := renamedCopy(orig, er)
		if rc.Fingerprint() == elab.Fingerprint() {
			res.Equivalent = true
			res.Method = "fingerprint"
			return res, nil
		}
		res.FingerprintMismatch = true
	}
	res.Method = "bitsim"
	bitsimCompare(orig, elab, er, res)
	return res, nil
}

// renamedCopy rebuilds orig with the emitted node, output, and design
// names applied, so a passthrough emission is fingerprint-comparable.
func renamedCopy(orig *netlist.Netlist, er *EmitResult) *netlist.Netlist {
	nl := netlist.New(er.design)
	newID := make([]netlist.ID, orig.Len())
	var anyID netlist.ID = netlist.Nil
	for id := netlist.ID(0); int(id) < orig.Len(); id++ {
		name := er.names[id]
		switch k := orig.Kind(id); {
		case k == netlist.Input:
			newID[id] = nl.AddInput(name)
		case k == netlist.Const0 || k == netlist.Const1:
			newID[id] = nl.AddConst(k == netlist.Const1)
			if nl.Node(newID[id]).Name == "" {
				nl.SetName(newID[id], name)
			}
		case k == netlist.Latch:
			ph := anyID
			if f := orig.Fanin(id)[0]; f < id {
				ph = newID[f]
			}
			newID[id] = nl.AddNamedLatch(name, ph)
		default:
			fanin := make([]netlist.ID, len(orig.Fanin(id)))
			for i, f := range orig.Fanin(id) {
				fanin[i] = newID[f]
			}
			newID[id] = nl.AddGateLike(orig.Node(id), fanin...)
			nl.SetName(newID[id], name)
		}
		if anyID == netlist.Nil {
			anyID = newID[id]
		}
	}
	for _, l := range orig.Latches() {
		nl.SetLatchD(newID[l], newID[orig.Fanin(l)[0]])
	}
	for i, o := range orig.Outputs() {
		nl.MarkOutput(er.outNames[i], newID[o.Driver])
	}
	return nl
}

// signalPair is one compared signal: a primary output or a latch D.
type signalPair struct {
	label string
	o, e  netlist.ID // the compared nodes in orig / elab
}

func bitsimCompare(orig, elab *netlist.Netlist, er *EmitResult, res *EquivResult) {
	fail := func(format string, a ...any) {
		res.Equivalent = false
		if len(res.Mismatches) < maxMismatchReports {
			res.Mismatches = append(res.Mismatches, fmt.Sprintf(format, a...))
		}
	}

	// Pair the free variables (inputs and latch outputs) by emitted name.
	type varPair struct{ o, e netlist.ID }
	var vars []varPair
	pairVar := func(id netlist.ID, wantKind netlist.Kind, what string) bool {
		name := er.names[id]
		if name == "" {
			fail("%s %s has no emitted name", what, orig.NameOf(id))
			return false
		}
		eid := elab.FindByName(name)
		if eid == netlist.Nil || elab.Kind(eid) != wantKind {
			fail("%s %s missing from elaboration", what, name)
			return false
		}
		vars = append(vars, varPair{o: id, e: eid})
		return true
	}
	origInputs := orig.Inputs()
	for _, id := range origInputs {
		if !pairVar(id, netlist.Input, "input") {
			return
		}
	}
	if n := len(elab.Inputs()); n != len(origInputs) {
		fail("input count differs: %d vs %d", len(origInputs), n)
		return
	}
	origLatches := orig.Latches()
	for _, id := range origLatches {
		if !pairVar(id, netlist.Latch, "state bit") {
			return
		}
	}
	if len(elab.Latches()) != len(origLatches) {
		fail("state bit count differs: %d vs %d", len(origLatches), len(elab.Latches()))
		return
	}

	// Compared signals: primary outputs and latch next-states.
	var pairs []signalPair
	eOuts := elab.Outputs()
	if len(eOuts) != len(orig.Outputs()) {
		fail("output count differs: %d vs %d", len(orig.Outputs()), len(eOuts))
		return
	}
	for i, o := range orig.Outputs() {
		if eOuts[i].Name != er.outNames[i] {
			fail("output %d renamed to %s", i, eOuts[i].Name)
			return
		}
		pairs = append(pairs, signalPair{
			label: "output " + er.outNames[i], o: o.Driver, e: eOuts[i].Driver})
	}
	// vars holds input pairs first, then latch pairs in origLatches
	// order, so vars[len(inputs)+i].e is the elaborated latch for
	// origLatches[i]; its fanin is the elaborated next-state.
	for i, id := range origLatches {
		pairs = append(pairs, signalPair{
			label: "state " + er.names[id],
			o:     orig.Fanin(id)[0], e: elab.Fanin(vars[len(origInputs)+i].e)[0]})
	}

	var oRoots, eRoots []netlist.ID
	for _, pr := range pairs {
		oRoots = append(oRoots, pr.o)
		eRoots = append(eRoots, pr.e)
	}

	nVars := len(vars)
	exhaustive := nVars <= exhaustiveVars
	rounds := randomRounds
	if exhaustive {
		rounds = (1<<uint(nVars) + bitsim.Lanes - 1) / bitsim.Lanes
	}
	// Every var is an input or latch, so a leaf of both cones already.
	oCone := bitsim.CompileCone(orig, oRoots, nil)
	eCone := bitsim.CompileCone(elab, eRoots, nil)
	rng := rand.New(rand.NewSource(1))
	bad := make([]bool, len(pairs)) // by pair; labels are distinct
	for round := 0; round < rounds; round++ {
		var mask uint64 = ^uint64(0)
		if exhaustive {
			base := round * bitsim.Lanes
			total := 1 << uint(nVars)
			if rem := total - base; rem < bitsim.Lanes {
				mask = 1<<uint(rem) - 1
			}
			for vi, vp := range vars {
				var w uint64
				for lane := 0; lane < bitsim.Lanes && base+lane < total; lane++ {
					if (base+lane)>>uint(vi)&1 == 1 {
						w |= 1 << uint(lane)
					}
				}
				oCone.Force(vp.o, bitsim.Known(w))
				eCone.Force(vp.e, bitsim.Known(w))
			}
		} else {
			for _, vp := range vars {
				v := rng.Uint64()
				oCone.Force(vp.o, bitsim.Known(v))
				eCone.Force(vp.e, bitsim.Known(v))
			}
		}
		oRes, eRes := oCone.Eval(), eCone.Eval()
		for i, pr := range pairs {
			if bad[i] {
				continue
			}
			vo, ve := oRes[i], eRes[i]
			if (vo.Val^ve.Val)&mask&^vo.Unk&^ve.Unk != 0 || (vo.Unk^ve.Unk)&mask != 0 {
				bad[i] = true
				fail("%s differs under simulation", pr.label)
			}
		}
		res.Patterns += bits.OnesCount64(mask)
	}

	// Exhaustive small-cone comparison: for every compared signal whose
	// original support fits a truth table, require identical tables.
	sup := orig.BoundedSupports(truth.MaxVars)
	var leaves, eLeaves []netlist.ID
	for i, pr := range pairs {
		if bad[i] || sup.Wide(pr.o) {
			continue
		}
		leaves = append(leaves[:0], sup.Of(pr.o)...)
		slices.SortFunc(leaves, func(a, b netlist.ID) int {
			return strings.Compare(er.names[a], er.names[b])
		})
		eLeaves = eLeaves[:0]
		for _, l := range leaves {
			if el := elab.FindByName(er.names[l]); el != netlist.Nil {
				eLeaves = append(eLeaves, el)
			}
		}
		if len(eLeaves) != len(leaves) {
			continue
		}
		to, ok1 := bitsim.TableOf(orig, pr.o, leaves)
		te, ok2 := bitsim.TableOf(elab, pr.e, eLeaves)
		if !ok1 || !ok2 {
			continue // the elaborated cone widened; random patterns cover it
		}
		res.ExactCones++
		if to.Bits&truth.Mask(to.N) != te.Bits&truth.Mask(te.N) || to.N != te.N {
			bad[i] = true
			fail("%s differs on exhaustive cone table", pr.label)
		}
	}

	res.Equivalent = len(res.Mismatches) == 0
}
