// Package modmatch implements Algorithm 4 of the paper (Section II-D):
// module generation between identified words and QBF-based matching
// against a reference library.
//
// For each candidate output word the combinational region back to other
// words is carved out; any remaining cone inputs become side inputs Y. Each
// library operation first meets a bit-parallel simulation refuter, which
// compares the candidate's output cone, compiled once per candidate on the
// netlist and cut at the region boundary, with a reference compiled once
// per (operation, width). Only a reference that survives is decided
// exactly: the region is then rebuilt as a standalone netlist (so the
// original is untouched), the reference is built into it over the
// candidate's input words, and the 2QBF question ∃Y ∀X . C(X,Y) == C'(X)
// is decided with the CEGAR solver. A match identifies both the operation
// and the side-input setting that selects it (e.g. the add/sub mode bit).
// The candidate bounds are constants: output words of 4 to 16 bits, at
// most 6 side inputs, and rotations by up to 4 bits in the library.
package modmatch

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"

	"netlistre/internal/bitsim"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/par"
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
	par.Do(len(cands), opt.Workers, canceled, func(claim func() (int, bool)) {
		refs := refCache{}
		for i, ok := claim(); ok; i, ok = claim() {
			results[i] = matchCandidate(ctx, nl, cands[i], opt, refs)
		}
	})

	var out []*module.Module
	seen := make(map[string]bool)
	for _, m := range results {
		if m == nil {
			continue
		}
		key := m.Attr["op"] + "/" + netlist.Key(m.Elements)
		if seen[key] {
			continue // same region matched via an equivalent word
		}
		seen[key] = true
		out = append(out, m)
	}
	return out
}

// Candidates carves candidate modules: for every word whose bits are gates,
// the cone is cut at the bits of the other words.
func Candidates(nl *netlist.Netlist, wordSet []words.Word, opt Options) []Candidate {
	c := newCarver(nl, wordSet)
	defer c.release()
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
		cand := c.carve(wi)
		if len(cand.Inputs) == 0 || len(cand.Inputs) > 2 {
			continue
		}
		if len(cand.Side) > maxSideInputs {
			continue
		}
		cands = append(cands, cand)
	}
	return cands
}

// wordIndex maps each node to the words holding it in compressed rows: the
// words of node id are list[start[id]:start[id+1]], ascending.
type wordIndex struct {
	start, list []int32
}

func newWordIndex(n int, wordSet []words.Word) wordIndex {
	start := make([]int32, n+1)
	for _, w := range wordSet {
		for _, b := range w.Bits {
			start[b+1]++
		}
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	list := make([]int32, start[n])
	next := slices.Clone(start[:n])
	for wi, w := range wordSet {
		for _, b := range w.Bits {
			list[next[b]] = int32(wi)
			next[b]++
		}
	}
	return wordIndex{start, list}
}

func (x wordIndex) of(id netlist.ID) []int32 { return x.list[x.start[id]:x.start[id+1]] }

// carver carves the candidates of one word set. The region walk, its
// boundary and the input words' bits are stamped sets, reset per word, and
// the input words are looked up through the word index from the boundary
// bits, so a carve costs time in its region, not in the word count. A
// carver belongs to one goroutine; release hands its sets back.
type carver struct {
	nl                   *netlist.Netlist
	wordSet              []words.Word
	index                wordIndex
	seen, boundary, used *netlist.VisitSet
	stack, cut           []netlist.ID
	owners               []int32
}

func newCarver(nl *netlist.Netlist, wordSet []words.Word) *carver {
	return &carver{
		nl:       nl,
		wordSet:  wordSet,
		index:    newWordIndex(nl.Len(), wordSet),
		seen:     nl.Visits(),
		boundary: nl.Visits(),
		used:     nl.Visits(),
	}
}

func (c *carver) release() {
	c.seen.Release()
	c.boundary.Release()
	c.used.Release()
}

// carve computes the combinational region from word wi's bits down to the
// bits of other words (cut points) or cone inputs. The input words are the
// first two words, in word order, of wi's width whose bits all lie on the
// boundary and share no bit with an earlier input word; the other boundary
// signals are the side inputs.
func (c *carver) carve(wi int) Candidate {
	nl, w := c.nl, c.wordSet[wi]
	seen, boundary, used := c.seen, c.boundary, c.used
	seen.Reset()
	boundary.Reset()
	used.Reset()
	var gates []netlist.ID
	stack := append(c.stack[:0], w.Bits...)
	for _, b := range w.Bits {
		seen.Visit(b)
	}
	cut := c.cut[:0]
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		gates = append(gates, id)
		for _, f := range nl.Fanin(id) {
			if seen.Seen(f) || boundary.Seen(f) {
				continue
			}
			// Cut at other words' bits and at cone inputs.
			isCut := nl.Kind(f).IsConeInput() || !nl.Kind(f).IsGate()
			if !isCut {
				for _, owi := range c.index.of(f) {
					if int(owi) != wi {
						isCut = true
						break
					}
				}
			}
			if isCut {
				boundary.Visit(f)
				cut = append(cut, f)
				continue
			}
			seen.Visit(f)
			stack = append(stack, f)
		}
	}
	c.stack, c.cut = stack, cut

	// A word fully on the boundary holds a boundary bit, so the words of
	// the boundary bits, ascending, are the only input-word candidates.
	owners := c.owners[:0]
	for _, b := range cut {
		owners = append(owners, c.index.of(b)...)
	}
	slices.Sort(owners)
	owners = slices.Compact(owners)
	c.owners = owners
	var inputWords []words.Word
	for _, owi := range owners {
		ow := c.wordSet[owi]
		if int(owi) == wi || len(ow.Bits) != len(w.Bits) {
			continue
		}
		fits := true
		for _, b := range ow.Bits {
			if !boundary.Seen(b) || used.Seen(b) {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		for _, b := range ow.Bits {
			used.Visit(b)
		}
		inputWords = append(inputWords, ow)
		if len(inputWords) == 2 {
			break
		}
	}
	var side []netlist.ID
	for _, b := range cut {
		if !used.Seen(b) {
			side = append(side, b)
		}
	}
	slices.Sort(side)
	slices.Sort(gates)
	return Candidate{Out: w, Inputs: inputWords, Side: side, Gates: gates}
}

// refBuilder instantiates a reference operation over operand words a and b
// (b is nil for unary operations) in nl, returning the reference output
// bits. build is the one definition of each operation: both the compiled
// references of the refuter and the QBF instances are built with it.
type refBuilder struct {
	name  string
	arity int
	build func(nl *netlist.Netlist, a, b []netlist.ID) []netlist.ID
}

// library is the reference library, in the order operations are tried.
var library = referenceLibrary()

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

// region is a candidate's carved region rebuilt as a standalone netlist
// whose primary inputs are the input-word bits and side inputs, with the
// region IDs of the candidate's signals. Cutting at the word boundary is
// essential: the 2QBF question quantifies over the WORDS, not over the
// netlist's distant primary inputs, and encoding past the cut would leave
// boundary signals in neither X nor Y.
type region struct {
	nl     *netlist.Netlist
	inputs [][]netlist.ID // each input word's bits
	forall []netlist.ID   // the input words' bits, concatenated (X)
	exists []netlist.ID   // the side inputs (Y), in cand.Side order
	outs   []netlist.ID   // the output word's bits
}

// extractRegion builds the candidate's region. Only a candidate that a
// reference survives the refuter on needs one, for the QBF instance.
func extractRegion(nl *netlist.Netlist, cand Candidate) *region {
	sub := netlist.New("region")
	m := make(map[netlist.ID]netlist.ID)
	rg := &region{nl: sub, inputs: make([][]netlist.ID, len(cand.Inputs))}
	for wi, w := range cand.Inputs {
		rg.inputs[wi] = make([]netlist.ID, len(w.Bits))
		for bi, b := range w.Bits {
			m[b] = sub.AddInput("")
			rg.inputs[wi][bi] = m[b]
		}
		rg.forall = append(rg.forall, rg.inputs[wi]...)
	}
	rg.exists = make([]netlist.ID, len(cand.Side))
	for si, s := range cand.Side {
		m[s] = sub.AddInput("")
		rg.exists[si] = m[s]
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
			r = sub.AddInput("")
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
	rg.outs = make([]netlist.ID, len(cand.Out.Bits))
	for i, b := range cand.Out.Bits {
		rg.outs[i] = resolve(b)
	}
	return rg
}

// refKey names a compiled reference: an index into library and a width.
type refKey struct{ op, width int }

// reference is a library operation built once, with its refBuilder, into a
// standalone netlist over fresh operand inputs a and b, and compiled for
// simulation. It is evaluated by forcing a and b.
type reference struct {
	a, b []netlist.ID
	cone *bitsim.Cone
}

// refCache holds the references one matching worker compiled. A reference
// depends only on its operation and width, so every candidate of that
// width shares it; cones are mutable, so each worker owns its cache.
type refCache map[refKey]*reference

func (c refCache) get(op, width int) *reference {
	k := refKey{op, width}
	if r, ok := c[k]; ok {
		return r
	}
	ref := library[op]
	nl := netlist.New(ref.name)
	r := &reference{a: make([]netlist.ID, width)}
	for i := range r.a {
		r.a[i] = nl.AddInput(fmt.Sprintf("a%d", i))
	}
	if ref.arity == 2 {
		r.b = make([]netlist.ID, width)
		for i := range r.b {
			r.b[i] = nl.AddInput(fmt.Sprintf("b%d", i))
		}
	}
	r.cone = bitsim.CompileCone(nl, ref.build(nl, r.a, r.b), nil)
	c[k] = r
	return r
}

// simRefuteRounds bounds the random input batches the refuter tries before
// handing the instance to the QBF solver.
const simRefuteRounds = 8

// candidateSim refutes ∃Y ∀X . outs(X,Y) == ref(X) by bit-parallel
// simulation when it can. The 2^|Y| side-input assignments are spread
// across the 64 lanes of one word (lane L carries Y = L's bits, and an
// independent random X draw), so one evaluation of the candidate's output
// cone, compiled once on the netlist and cut at its boundary, tests every
// side-input setting at once. The cut makes the cone the candidate's
// region: its leaves are the input-word bits and side inputs, as in the
// region netlist the QBF instance is built on, so no region is extracted
// for a candidate the refuter settles. The X rounds are drawn lazily, once
// per candidate, and the candidate's outputs for each round are kept, so
// every library operation and operand order is tested against the same
// rounds by evaluating only its compiled reference. A lane mismatch refutes
// its Y assignment; when every assignment has been refuted, the QBF
// instance is provably UNSAT and the solver call is skipped. A refutation
// is always sound — each Y has a concrete X witnessing outs != ref — and
// unknown lanes never count as mismatches.
type candidateSim struct {
	cone  *bitsim.Cone
	words [][]netlist.ID // each input word's bits
	lanes int            // 2^|Y|, the period of the Y assignments
	full  uint64         // one bit per Y assignment
	rng   *rand.Rand
	x     [][][]uint64      // per drawn round, per input word, per bit
	outs  [][]bitsim.Vector // per drawn round, the candidate's outputs
}

// newCandidateSim compiles the candidate's output cone on nl, cut at the
// input-word bits and side inputs, with the side inputs holding their lane
// patterns. It returns nil when the side-input space does not fit the
// lanes.
func newCandidateSim(nl *netlist.Netlist, cand Candidate, rng *rand.Rand) *candidateSim {
	nY := len(cand.Side)
	if nY > truth.MaxVars {
		return nil
	}
	ws := make([][]netlist.ID, len(cand.Inputs))
	var cut []netlist.ID
	for wi, w := range cand.Inputs {
		ws[wi] = w.Bits
		cut = append(cut, w.Bits...)
	}
	cut = append(cut, cand.Side...)
	cone := bitsim.CompileCone(nl, cand.Out.Bits, cut)
	for i, y := range cand.Side {
		cone.Force(y, bitsim.Known(truth.Var(i, truth.MaxVars).Bits))
	}
	return &candidateSim{
		cone:  cone,
		words: ws,
		lanes: 1 << uint(nY),
		full:  truth.Mask(nY),
		rng:   rng,
	}
}

// round returns round r's X words and the candidate's outputs under them,
// drawing and evaluating the round on first use. Rounds are requested in
// order, so r is at most the number drawn so far.
func (s *candidateSim) round(r int) ([][]uint64, []bitsim.Vector) {
	if r == len(s.outs) {
		x := make([][]uint64, len(s.words))
		for wi, w := range s.words {
			x[wi] = make([]uint64, len(w))
			for i, id := range w {
				x[wi][i] = s.rng.Uint64()
				s.cone.Force(id, bitsim.Known(x[wi][i]))
			}
		}
		s.x = append(s.x, x)
		s.outs = append(s.outs, slices.Clone(s.cone.Eval()))
	}
	return s.x[r], s.outs[r]
}

// refutes reports whether simulation proves that no side-input setting
// makes the candidate compute ref with operands a = input word ord[0] and
// b = input word ord[1].
func (s *candidateSim) refutes(ref *reference, ord [2]int) bool {
	var refuted uint64
	for r := 0; r < simRefuteRounds && refuted != s.full; r++ {
		x, outs := s.round(r)
		for i, id := range ref.a {
			ref.cone.Force(id, bitsim.Known(x[ord[0]][i]))
		}
		for i, id := range ref.b {
			ref.cone.Force(id, bitsim.Known(x[ord[1]][i]))
		}
		vals := ref.cone.Eval()
		var diff uint64
		for i, o := range outs {
			diff |= (o.Val ^ vals[i].Val) &^ (o.Unk | vals[i].Unk)
		}
		// Lanes repeat the Y assignments with period 2^|Y|; fold so a
		// mismatch anywhere refutes the lane's assignment.
		for sh := s.lanes; sh < bitsim.Lanes; sh *= 2 {
			diff |= diff >> uint(sh)
		}
		refuted |= diff & s.full
	}
	return refuted == s.full
}

// matchCandidate tries every library operation (and both operand orders for
// the asymmetric ones) against the candidate. The refuter runs on the
// netlist; a reference it leaves standing is decided on the extracted
// region, built at the first such reference, so the QBF instances stay
// small and the quantifier structure is exact. refs is the calling
// worker's reference cache.
func matchCandidate(ctx context.Context, nl *netlist.Netlist, cand Candidate, opt Options, refs refCache) *module.Module {
	width := len(cand.Out.Bits)
	var sim *candidateSim
	if !opt.disablePrefilter {
		// Deterministically seeded per candidate; the refuter only skips
		// provably-false QBF instances, so the seed never changes results.
		rng := rand.New(rand.NewPCG(0x5eed<<20^uint64(len(cand.Gates))<<8^uint64(cand.Out.Bits[0]), 0))
		sim = newCandidateSim(nl, cand, rng)
	}
	var rg *region

	for op, ref := range library {
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
			if sim != nil && sim.refutes(refs.get(op, width), ord) {
				continue // provably no side-input setting works
			}
			if rg == nil {
				rg = extractRegion(nl, cand)
			}
			var b []netlist.ID
			if ref.arity == 2 {
				b = rg.inputs[ord[1]]
			}
			refOuts := ref.build(rg.nl, rg.inputs[ord[0]], b)
			res := qbf.SolveForallEqualWord(ctx, rg.nl, rg.outs, refOuts, rg.forall, rg.exists, 0)
			if !res.Found {
				continue
			}
			m := module.New(module.WordOp, width, cand.Gates)
			m.Name = fmt.Sprintf("%s[%d]", ref.name, width)
			m.SetAttr("op", ref.name)
			m.SetPort("out", cand.Out.Bits)
			m.SetPort("a", cand.Inputs[ord[0]].Bits)
			if ref.arity == 2 {
				m.SetPort("b", cand.Inputs[ord[1]].Bits)
			}
			m.SetPort("side", cand.Side)
			back := make(map[netlist.ID]netlist.ID, len(cand.Side))
			for si, s := range cand.Side {
				back[rg.exists[si]] = s
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
