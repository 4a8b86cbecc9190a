// Package modmatch implements Algorithm 4 of the paper (Section II-D):
// module generation between identified words and QBF-based matching
// against a reference library.
//
// For each candidate output word the combinational region back to other
// words is carved out; any remaining cone inputs become side inputs Y. A
// reference implementation of each library operation is instantiated over
// the candidate's input words (in a scratch clone of the netlist, so the
// original is untouched), and the 2QBF question ∃Y ∀X . C(X,Y) == C'(X) is
// decided with the CEGAR solver. A match identifies both the operation and
// the side-input setting that selects it (e.g. the add/sub mode bit).
// The candidate bounds are constants: output words of 4 to 16 bits, at
// most 6 side inputs, and rotations by up to 4 bits in the library.
package modmatch

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"netlistre/internal/bitsim"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/qbf"
	"netlistre/internal/truth"
	"netlistre/internal/words"
)

const (
	// maxSideInputs bounds |Y|; candidates with more side inputs are
	// skipped (the synthesis space doubles per side input).
	maxSideInputs = 6
	// minWidth skips narrow candidate words (narrow "words" are usually
	// incidental signal groups, and 2-3 bit library matches are noise).
	minWidth = 4
	// maxWidth bounds the word width matched (QBF cost grows with width).
	maxWidth = 16
	// maxRotate bounds the rotation/shift constants tried.
	maxRotate = 4
)

// Options tunes module matching.
type Options struct {
	// Workers bounds the matching worker pool (0 = GOMAXPROCS). The
	// caller's scheduler sets this so that the stage respects the shared
	// analysis-wide worker budget.
	Workers int
	// disablePrefilter turns off the bit-parallel simulation prefilter
	// that refutes non-matching reference operations before the QBF
	// solver runs. The prefilter is sound (it only skips instances whose
	// ∃Y∀X question is provably false), so only this package's
	// differential tests set it, for their oracle runs.
	disablePrefilter bool
}

// Candidate is a carved-out unknown module.
type Candidate struct {
	Out    words.Word
	Inputs []words.Word // words found on the cone boundary
	Side   []netlist.ID // remaining boundary signals (Y)
	Gates  []netlist.ID // combinational region between Out and the boundary
}

// Match finds word-level operator modules. wordSet supplies the words
// (from aggregation and propagation). Canceling ctx stops the matching
// cooperatively: candidates already matched are returned, the rest are
// skipped.
func Match(ctx context.Context, nl *netlist.Netlist, wordSet []words.Word, opt Options) []*module.Module {
	cands := Candidates(nl, wordSet, opt)
	canceled := func() bool { return ctx != nil && ctx.Err() != nil }

	// Candidates are independent (each works on its own extracted region),
	// so match them concurrently; results are collected by index to keep
	// the output deterministic.
	results := make([]*module.Module, len(cands))
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers > 1 {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					if canceled() {
						continue // drain remaining indices without work
					}
					results[i] = matchCandidate(ctx, nl, cands[i], opt)
				}
			}()
		}
		for i := range cands {
			next <- i
		}
		close(next)
		wg.Wait()
	} else {
		for i := range cands {
			if canceled() {
				break
			}
			results[i] = matchCandidate(ctx, nl, cands[i], opt)
		}
	}

	var out []*module.Module
	seen := make(map[string]bool)
	for _, m := range results {
		if m == nil {
			continue
		}
		key := m.Attr["op"] + "/" + elementKey(m.Elements)
		if seen[key] {
			continue // same region matched via an equivalent word
		}
		seen[key] = true
		out = append(out, m)
	}
	return out
}

func elementKey(ids []netlist.ID) string {
	b := make([]byte, 0, len(ids)*4)
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

// Candidates carves candidate modules: for every word whose bits are gates,
// the cone is cut at the bits of the other words.
func Candidates(nl *netlist.Netlist, wordSet []words.Word, opt Options) []Candidate {
	// Map from signal to the words containing it.
	wordOf := make(map[netlist.ID][]int)
	for wi, w := range wordSet {
		for _, b := range w.Bits {
			wordOf[b] = append(wordOf[b], wi)
		}
	}
	var cands []Candidate
	for wi, w := range wordSet {
		if len(w.Bits) < minWidth || len(w.Bits) > maxWidth {
			continue
		}
		allGates := true
		for _, b := range w.Bits {
			if !nl.Kind(b).IsGate() {
				allGates = false
				break
			}
		}
		if !allGates {
			continue
		}
		cand, ok := carve(nl, wordSet, wordOf, wi)
		if !ok || len(cand.Inputs) == 0 || len(cand.Inputs) > 2 {
			continue
		}
		if len(cand.Side) > maxSideInputs {
			continue
		}
		cands = append(cands, cand)
	}
	return cands
}

// carve computes the combinational region from word wi's bits down to the
// bits of other words (cut points) or cone inputs.
func carve(nl *netlist.Netlist, wordSet []words.Word, wordOf map[netlist.ID][]int, wi int) (Candidate, bool) {
	w := wordSet[wi]
	inW := make(map[netlist.ID]bool, len(w.Bits))
	for _, b := range w.Bits {
		inW[b] = true
	}
	seen := make(map[netlist.ID]bool)
	boundary := make(map[netlist.ID]bool)
	var gates []netlist.ID
	stack := append([]netlist.ID(nil), w.Bits...)
	for _, b := range w.Bits {
		seen[b] = true
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		gates = append(gates, id)
		for _, f := range nl.Fanin(id) {
			if seen[f] || boundary[f] {
				continue
			}
			// Cut at other words' bits and at cone inputs.
			isCut := nl.Kind(f).IsConeInput() || !nl.Kind(f).IsGate()
			if !isCut {
				for _, owi := range wordOf[f] {
					if owi != wi {
						isCut = true
						break
					}
				}
			}
			if isCut {
				boundary[f] = true
				continue
			}
			seen[f] = true
			stack = append(stack, f)
		}
	}

	// Which words are fully present on the boundary?
	var inputWords []words.Word
	usedBits := make(map[netlist.ID]bool)
	for owi, ow := range wordSet {
		if owi == wi || len(ow.Bits) != len(w.Bits) {
			continue
		}
		all := true
		for _, b := range ow.Bits {
			if !boundary[b] {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		dup := false
		for _, b := range ow.Bits {
			if usedBits[b] {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		for _, b := range ow.Bits {
			usedBits[b] = true
		}
		inputWords = append(inputWords, ow)
		if len(inputWords) == 2 {
			break
		}
	}
	var side []netlist.ID
	for b := range boundary {
		if !usedBits[b] {
			side = append(side, b)
		}
	}
	side = netlist.SortedIDs(side)
	sort.Slice(gates, func(i, j int) bool { return gates[i] < gates[j] })
	return Candidate{Out: w, Inputs: inputWords, Side: side, Gates: gates}, true
}

// refBuilder instantiates a reference operation over the candidate's input
// words in a scratch netlist, returning the reference output bits.
type refBuilder struct {
	name  string
	arity int
	build func(nl *netlist.Netlist, a, b []netlist.ID) []netlist.ID
}

func referenceLibrary() []refBuilder {
	lib := []refBuilder{
		{"add", 2, func(nl *netlist.Netlist, a, b []netlist.ID) []netlist.ID {
			return rippleAdd(nl, a, b, nl.AddConst(false))
		}},
		{"sub", 2, func(nl *netlist.Netlist, a, b []netlist.ID) []netlist.ID {
			// a - b = a + ~b + 1.
			nb := make([]netlist.ID, len(b))
			for i := range b {
				nb[i] = nl.AddGate(netlist.Not, b[i])
			}
			return rippleAdd(nl, a, nb, nl.AddConst(true))
		}},
		{"and", 2, bitwiseRef(netlist.And)},
		{"or", 2, bitwiseRef(netlist.Or)},
		{"xor", 2, bitwiseRef(netlist.Xor)},
		{"not", 1, func(nl *netlist.Netlist, a, _ []netlist.ID) []netlist.ID {
			out := make([]netlist.ID, len(a))
			for i := range a {
				out[i] = nl.AddGate(netlist.Not, a[i])
			}
			return out
		}},
		{"neg", 1, func(nl *netlist.Netlist, a, _ []netlist.ID) []netlist.ID {
			// Two's complement: ~a + 1.
			na := make([]netlist.ID, len(a))
			for i := range a {
				na[i] = nl.AddGate(netlist.Not, a[i])
			}
			zero := make([]netlist.ID, len(a))
			z := nl.AddConst(false)
			for i := range zero {
				zero[i] = z
			}
			return rippleAdd(nl, na, zero, nl.AddConst(true))
		}},
	}
	for k := 1; k <= maxRotate; k++ {
		k := k
		lib = append(lib, refBuilder{fmt.Sprintf("rotl%d", k), 1,
			func(nl *netlist.Netlist, a, _ []netlist.ID) []netlist.ID {
				out := make([]netlist.ID, len(a))
				for i := range a {
					out[(i+k)%len(a)] = nl.AddGate(netlist.Buf, a[i])
				}
				return out
			}})
		lib = append(lib, refBuilder{fmt.Sprintf("shl%d", k), 1,
			func(nl *netlist.Netlist, a, _ []netlist.ID) []netlist.ID {
				out := make([]netlist.ID, len(a))
				z := nl.AddConst(false)
				for i := 0; i < k && i < len(a); i++ {
					out[i] = nl.AddGate(netlist.Buf, z)
				}
				for i := k; i < len(a); i++ {
					out[i] = nl.AddGate(netlist.Buf, a[i-k])
				}
				return out
			}})
	}
	return lib
}

func bitwiseRef(kind netlist.Kind) func(nl *netlist.Netlist, a, b []netlist.ID) []netlist.ID {
	return func(nl *netlist.Netlist, a, b []netlist.ID) []netlist.ID {
		out := make([]netlist.ID, len(a))
		for i := range a {
			out[i] = nl.AddGate(kind, a[i], b[i])
		}
		return out
	}
}

func rippleAdd(nl *netlist.Netlist, a, b []netlist.ID, cin netlist.ID) []netlist.ID {
	carry := cin
	out := make([]netlist.ID, len(a))
	for i := range a {
		out[i] = nl.AddGate(netlist.Xor, a[i], b[i], carry)
		carry = nl.AddGate(netlist.Or,
			nl.AddGate(netlist.And, a[i], b[i]),
			nl.AddGate(netlist.And, b[i], carry),
			nl.AddGate(netlist.And, carry, a[i]))
	}
	return out
}

// extractRegion rebuilds the candidate's carved region as a standalone
// netlist whose primary inputs are the input-word bits and side inputs.
// Cutting at the word boundary is essential: the 2QBF question quantifies
// over the WORDS, not over the netlist's distant primary inputs, and
// encoding past the cut would leave boundary signals in neither X nor Y.
func extractRegion(nl *netlist.Netlist, cand Candidate) (*netlist.Netlist, map[netlist.ID]netlist.ID) {
	sub := netlist.New("region")
	m := make(map[netlist.ID]netlist.ID)
	for wi, w := range cand.Inputs {
		for bi, b := range w.Bits {
			m[b] = sub.AddInput(fmt.Sprintf("w%d_%d", wi, bi))
		}
	}
	for si, s := range cand.Side {
		m[s] = sub.AddInput(fmt.Sprintf("y%d", si))
	}
	inRegion := make(map[netlist.ID]bool, len(cand.Gates))
	for _, g := range cand.Gates {
		inRegion[g] = true
	}
	var resolve func(id netlist.ID) netlist.ID
	resolve = func(id netlist.ID) netlist.ID {
		if r, ok := m[id]; ok {
			return r
		}
		node := nl.Node(id)
		var r netlist.ID
		switch {
		case node.Kind == netlist.Const0 || node.Kind == netlist.Const1:
			r = sub.AddConst(node.Kind == netlist.Const1)
		case !inRegion[id]:
			// Stray boundary signal (should be rare): free input.
			r = sub.AddInput(fmt.Sprintf("ext%d", id))
		default:
			fan := make([]netlist.ID, len(node.Fanin))
			for i, f := range node.Fanin {
				fan[i] = resolve(f)
			}
			r = sub.AddGateLike(node, fan...)
		}
		m[id] = r
		return r
	}
	for _, b := range cand.Out.Bits {
		resolve(b)
	}
	return sub, m
}

// simRefuteRounds bounds the random input batches simRefute tries before
// handing the instance to the QBF solver.
const simRefuteRounds = 8

// simRefute decides ∃Y ∀X . outs(X,Y) == refOuts(X) negatively by
// bit-parallel simulation when it can: the 2^|Y| side-input assignments are
// spread across the 64 lanes of one word (lane L carries Y = L's bits, and
// an independent random X draw), so one RunCone tests every side-input
// setting at once. A lane mismatch refutes its Y assignment; when every
// assignment has been refuted, the QBF instance is provably UNSAT and the
// solver call is skipped. A true result is always sound — each Y has a
// concrete X witnessing outs != refOuts — and unknown lanes (reachable
// stray inputs outside X and Y) never count as mismatches.
func simRefute(region *netlist.Netlist, outs, refOuts, forall, exists []netlist.ID, rng *rand.Rand) bool {
	nY := len(exists)
	if nY > truth.MaxVars {
		return false // side-input space does not fit the lanes
	}
	lanes := 1 << uint(nY)
	full := truth.Mask(nY)
	assign := make(map[netlist.ID]bitsim.Vector, nY+len(forall))
	for i, y := range exists {
		assign[y] = bitsim.Known(truth.Var(i, truth.MaxVars).Bits)
	}
	roots := make([]netlist.ID, 0, len(outs)+len(refOuts))
	roots = append(roots, outs...)
	roots = append(roots, refOuts...)
	var refuted uint64
	for round := 0; round < simRefuteRounds && refuted != full; round++ {
		for _, x := range forall {
			assign[x] = bitsim.Known(rng.Uint64())
		}
		vals := bitsim.RunCone(region, roots, assign)
		var diff uint64
		for i := range outs {
			a, b := vals[outs[i]], vals[refOuts[i]]
			diff |= (a.Val ^ b.Val) &^ (a.Unk | b.Unk)
		}
		// Lanes repeat the Y assignments with period 2^nY; fold so a
		// mismatch anywhere refutes the lane's assignment.
		for sh := lanes; sh < bitsim.Lanes; sh *= 2 {
			diff |= diff >> uint(sh)
		}
		refuted |= diff & full
	}
	return refuted == full
}

// matchCandidate tries every library operation (and both operand orders for
// the asymmetric ones) against the candidate. Matching happens on the
// extracted region netlist, so the QBF instances stay small and the
// quantifier structure is exact.
func matchCandidate(ctx context.Context, nl *netlist.Netlist, cand Candidate, opt Options) *module.Module {
	region, rmap := extractRegion(nl, cand)
	var forall []netlist.ID
	for _, w := range cand.Inputs {
		for _, b := range w.Bits {
			forall = append(forall, rmap[b])
		}
	}
	var exists []netlist.ID
	for _, s := range cand.Side {
		exists = append(exists, rmap[s])
	}
	outs := make([]netlist.ID, len(cand.Out.Bits))
	for i, b := range cand.Out.Bits {
		outs[i] = rmap[b]
	}
	// Deterministically seeded per candidate; the prefilter's outcome only
	// gates provably-false QBF instances, so the seed never changes results.
	rng := rand.New(rand.NewSource(0x5eed<<20 ^ int64(len(cand.Gates))<<8 ^ int64(cand.Out.Bits[0])))

	for _, ref := range referenceLibrary() {
		if ctx != nil && ctx.Err() != nil {
			return nil
		}
		if ref.arity != len(cand.Inputs) {
			continue
		}
		orders := [][2]int{{0, 1}}
		if ref.arity == 2 && ref.name == "sub" {
			orders = append(orders, [2]int{1, 0})
		}
		if ref.arity == 1 {
			orders = [][2]int{{0, 0}}
		}
		for _, ord := range orders {
			var a, b []netlist.ID
			for _, x := range cand.Inputs[ord[0]].Bits {
				a = append(a, rmap[x])
			}
			if ref.arity == 2 {
				for _, x := range cand.Inputs[ord[1]].Bits {
					b = append(b, rmap[x])
				}
			}
			refOuts := ref.build(region, a, b)
			if !opt.disablePrefilter && simRefute(region, outs, refOuts, forall, exists, rng) {
				continue // provably no side-input setting works
			}
			res := qbf.SolveForallEqualWord(ctx, region, outs, refOuts, forall, exists, 0)
			if !res.Found {
				continue
			}
			m := module.New(module.WordOp, len(cand.Out.Bits), cand.Gates)
			m.Name = fmt.Sprintf("%s[%d]", ref.name, len(cand.Out.Bits))
			m.SetAttr("op", ref.name)
			m.SetPort("out", cand.Out.Bits)
			m.SetPort("a", cand.Inputs[ord[0]].Bits)
			if ref.arity == 2 {
				m.SetPort("b", cand.Inputs[ord[1]].Bits)
			}
			m.SetPort("side", cand.Side)
			back := make(map[netlist.ID]netlist.ID, len(cand.Side))
			for _, s := range cand.Side {
				back[rmap[s]] = s
			}
			for y, v := range res.Assignment {
				val := "0"
				if v {
					val = "1"
				}
				m.SetAttr(fmt.Sprintf("side%d", back[y]), val)
			}
			return m
		}
	}
	return nil
}
