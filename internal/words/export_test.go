package words

import (
	"slices"

	"netlistre/internal/netlist"
)

// ControlWires exposes the control-wire search to the external oracle test.
func ControlWires(nl *netlist.Netlist, src, tgt Word) []netlist.ID {
	ck := newChecker(nl, Options{})
	defer ck.release()
	return slices.Clone(ck.controlWires(src, tgt))
}

// GuessForward and GuessBackward expose the candidate guesses, so a test can
// list every (source, target) pair PropagateAll checks.
func GuessForward(nl *netlist.Netlist, w Word) []Word {
	ck := newChecker(nl, Options{})
	defer ck.release()
	return ck.guessForward(w)
}

func GuessBackward(nl *netlist.Netlist, w Word) []Word {
	ck := newChecker(nl, Options{})
	defer ck.release()
	return ck.guessBackward(w)
}
