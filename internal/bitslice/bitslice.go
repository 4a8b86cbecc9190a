// Package bitslice implements Algorithm 1 of the paper: cut-based Boolean
// matching of netlist nodes against a library of 1-bit datapath slices
// (Section II-A). For every gate it inspects the node's k-feasible cuts,
// shrinks away vacuous leaves, and matches the resulting function against
// the library permutation-independently. A match records which cut leaf
// plays which formal argument (e.g. which leaf is a mux select), which the
// aggregation algorithms rely on.
//
// Matching runs on the canonical-index fast path (truth.Index): a
// permutation-invariant check that rejects most cut functions outright,
// and one canonicalization plus one hash probe for the rest, with a
// per-worker memo of the functions that matched (or, when unknown classes
// are collected, got a class key) so repeated ones — ubiquitous in
// bit-sliced datapaths — classify with a single map hit. The original
// per-entry permutation search is retained behind Options.SlowMatch as the
// differential-testing oracle; both paths produce byte-identical Results.
package bitslice

import (
	"math/bits"
	"slices"

	"netlistre/internal/cuts"
	"netlistre/internal/netlist"
	"netlistre/internal/par"
	"netlistre/internal/truth"
)

// Match is one node matching one library slice.
type Match struct {
	Root  netlist.ID
	Class truth.Class
	// Args[j] is the netlist node driving formal argument j of the library
	// function.
	Args []netlist.ID
	// Cone lists the gates implementing the slice: the nodes between Root
	// (inclusive) and the cut leaves (exclusive), sorted.
	Cone []netlist.ID
}

// Result groups matches by class and indexes them by root.
type Result struct {
	ByClass map[truth.Class][]*Match
	ByRoot  map[netlist.ID][]*Match
	// UnknownClasses groups non-library cut functions by canonical table,
	// for candidate-module generation (Section II-B.1); keys are canonical
	// table strings.
	UnknownClasses map[string][]*Match
}

// Options tunes identification.
type Options struct {
	Cuts cuts.Options
	// Library is the slice library; nil selects truth.Library().
	Library []truth.Entry
	// KeepUnknown enables collecting unknown-function equivalence classes
	// (more memory; only needed when candidate generation is wanted).
	KeepUnknown bool
	// SlowMatch disables the canonical index and searches for a
	// permutation per library entry, as the original implementation did.
	// It exists as the oracle for differential tests; results are
	// identical either way.
	SlowMatch bool
	// Workers caps the enumeration and matching parallelism, and
	// overrides Cuts.Workers. 0 uses GOMAXPROCS; 1 runs serially. The
	// Result is deterministic and independent of Workers.
	Workers int
}

// cutMatch is one classified (class, argument-permutation) pair for a cut
// function; classification depends only on the shrunk table, so these are
// memoized per worker.
type cutMatch struct {
	entry truth.Entry
	perm  []int
}

// classification is the memoized matching outcome of one shrunk table.
type classification struct {
	matches []cutMatch
	// unknownKey is the canonical-table key for unmatched functions of
	// arity >= 3 (only populated when unknown collection is on).
	unknownKey string
}

// classifier matches shrunk cut functions, memoizing by table every
// classification that cost more than a prefilter check. Each worker owns
// one, so no locking is needed on the hot path.
type classifier struct {
	ix          *truth.Index // nil in SlowMatch mode
	byArity     map[int][]truth.Entry
	keepUnknown bool
	memo        map[truth.Table]classification
}

func (cl *classifier) classify(shrunk truth.Table) classification {
	if c, ok := cl.memo[shrunk]; ok {
		return c
	}
	var c classification
	if cl.ix != nil {
		var hits []truth.Hit
		var canon truth.Table
		if cl.keepUnknown && shrunk.N >= 3 {
			// One Canon() serves both the index probe and, if nothing
			// matches, the unknown-class key below.
			hits, canon, _ = cl.ix.LookupCanon(shrunk)
		} else {
			hits = cl.ix.Lookup(shrunk)
		}
		for _, h := range hits {
			perm := h.Perm
			if !h.Unique {
				// Symmetric entries admit several valid permutations;
				// reproduce MatchAgainst's choice so downstream argument
				// orderings (and golden reports) are bit-identical.
				p, ok := shrunk.MatchAgainst(h.Entry.Table)
				if !ok {
					panic("bitslice: index hit that MatchAgainst rejects")
				}
				perm = p
			}
			c.matches = append(c.matches, cutMatch{entry: h.Entry, perm: perm})
		}
		if len(c.matches) == 0 && cl.keepUnknown && shrunk.N >= 3 {
			c.unknownKey = canon.String()
		}
	} else {
		for _, entry := range cl.byArity[shrunk.N] {
			if perm, ok := shrunk.MatchAgainst(entry.Table); ok {
				c.matches = append(c.matches, cutMatch{entry: entry, perm: perm})
			}
		}
		if len(c.matches) == 0 && cl.keepUnknown && shrunk.N >= 3 {
			canon, _ := shrunk.Canon()
			c.unknownKey = canon.String()
		}
	}
	if cl.ix != nil && len(c.matches) == 0 && c.unknownKey == "" {
		// Index.Lookup's invariant prefilter rejects such a miss about as
		// fast as a memo probe, so memoizing misses would only grow the
		// memo (thousands of them per design, against at most a few
		// hundred hits).
		return c
	}
	cl.memo[shrunk] = c
	return c
}

// unknownRec is one unknown-class representative found at a node.
type unknownRec struct {
	key string
	m   *Match
}

// Find runs cut enumeration and Boolean matching over the whole netlist.
func Find(nl *netlist.Netlist, opt Options) *Result {
	lib := opt.Library
	if lib == nil {
		lib = truth.Library()
	}
	var ix *truth.Index
	if !opt.SlowMatch {
		if opt.Library == nil {
			ix = truth.DefaultIndex()
		} else {
			ix = truth.NewIndex(lib)
		}
	}
	// Arity buckets, library order preserved: the slow path scans these,
	// and index hits surface in the same order, so the two paths emit
	// matches identically.
	byArity := make(map[int][]truth.Entry)
	for _, e := range lib {
		byArity[e.Table.N] = append(byArity[e.Table.N], e)
	}

	// Enumeration spreads its components over the same worker budget.
	copt := opt.Cuts
	copt.Workers = opt.Workers
	cutSets := cuts.EnumerateByID(nl, copt)
	res := &Result{
		ByClass: make(map[truth.Class][]*Match),
		ByRoot:  make(map[netlist.ID][]*Match),
	}
	if opt.KeepUnknown {
		res.UnknownClasses = make(map[string][]*Match)
	}

	// Workers claim 64-node chunks and fill per-node result slots; the
	// merge below walks nodes in ID order, so ByClass/ByRoot/UnknownClasses
	// contents and ordering are independent of scheduling. The enumeration
	// interrupt also covers matching: a budgeted caller gets the matches
	// found so far instead of a stall on a huge netlist.
	perNode := make([][]*Match, nl.Len())
	var perUnknown [][]unknownRec
	if opt.KeepUnknown {
		perUnknown = make([][]unknownRec, nl.Len())
	}
	par.Do((nl.Len()+chunk-1)/chunk, opt.Workers, opt.Cuts.Interrupt, func(claim func() (int, bool)) {
		cl := &classifier{
			ix:          ix,
			byArity:     byArity,
			keepUnknown: opt.KeepUnknown,
			memo:        make(map[truth.Table]classification),
		}
		walk := &coneWalk{seen: nl.Visits()}
		defer walk.seen.Release()
		for c, ok := claim(); ok; c, ok = claim() {
			lo := netlist.ID(c * chunk)
			hi := min(lo+chunk, netlist.ID(nl.Len()))
			for id := lo; id < hi; id++ {
				matchNode(nl, id, cutSets[id], cl, walk, perNode, perUnknown)
			}
		}
	})

	for id := netlist.ID(0); int(id) < nl.Len(); id++ {
		for _, m := range perNode[id] {
			res.add(m)
		}
		if perUnknown != nil {
			for _, u := range perUnknown[id] {
				res.UnknownClasses[u.key] = append(res.UnknownClasses[u.key], u.m)
			}
		}
	}
	return res
}

// chunk is the number of consecutive node IDs a worker claims at a time;
// it doubles as the interrupt polling granularity (one check per chunk,
// matching the historical every-64-nodes cadence).
const chunk = 64

// matchNode classifies every non-trivial cut of one gate, keeping one match
// per (root, class) and one unknown representative per canonical function.
func matchNode(nl *netlist.Netlist, id netlist.ID, cs []cuts.Cut,
	cl *classifier, walk *coneWalk, perNode [][]*Match, perUnknown [][]unknownRec) {
	if !nl.Kind(id).IsGate() {
		return
	}
	var seenClass [256 / 64]uint64  // bit c: a match of Class c is kept
	var seenUnknown map[string]bool // allocated at the node's first unknown
	for _, c := range cs {
		if len(c.Leaves) == 1 && c.Leaves[0] == id {
			continue // trivial cut matches nothing interesting
		}
		shrunk, sup := c.Table.Shrink()
		if shrunk.N == 0 {
			continue // constant function
		}
		cls := cl.classify(shrunk)
		var leaves []netlist.ID // built for the first kept match only
		for _, cm := range cls.matches {
			w, bit := cm.entry.Class/64, uint64(1)<<(cm.entry.Class%64)
			if seenClass[w]&bit != 0 {
				continue // keep one match per (root, class)
			}
			seenClass[w] |= bit
			if leaves == nil {
				leaves = pick(c.Leaves, sup)
			}
			args := make([]netlist.ID, len(cm.perm))
			for j, v := range cm.perm {
				args[j] = leaves[v]
			}
			perNode[id] = append(perNode[id], &Match{
				Root:  id,
				Class: cm.entry.Class,
				Args:  args,
				Cone:  walk.within(nl, id, leaves),
			})
		}
		if len(cls.matches) == 0 && perUnknown != nil && shrunk.N >= 3 {
			if seenUnknown == nil {
				seenUnknown = make(map[string]bool)
			}
			if !seenUnknown[cls.unknownKey] {
				seenUnknown[cls.unknownKey] = true
				leaves := pick(c.Leaves, sup)
				perUnknown[id] = append(perUnknown[id], unknownRec{
					key: cls.unknownKey,
					m: &Match{
						Root:  id,
						Class: truth.ClassUnknown,
						Args:  leaves,
						Cone:  walk.within(nl, id, leaves),
					},
				})
			}
		}
	}
}

// pick returns the leaves at the set bits of a support mask: shrunk
// variable j of a cut function is leaf pick(c.Leaves, sup)[j].
func pick(leaves []netlist.ID, sup uint8) []netlist.ID {
	out := make([]netlist.ID, 0, bits.OnesCount8(sup))
	for ; sup != 0; sup &= sup - 1 {
		out = append(out, leaves[bits.TrailingZeros8(sup)])
	}
	return out
}

func (r *Result) add(m *Match) {
	r.ByClass[m.Class] = append(r.ByClass[m.Class], m)
	r.ByRoot[m.Root] = append(r.ByRoot[m.Root], m)
}

// Matches returns the matches for a class (possibly nil).
func (r *Result) Matches(c truth.Class) []*Match { return r.ByClass[c] }

// HasClass reports whether root has a match of the given class and returns
// it.
func (r *Result) HasClass(root netlist.ID, c truth.Class) (*Match, bool) {
	for _, m := range r.ByRoot[root] {
		if m.Class == c {
			return m, true
		}
	}
	return nil, false
}

// coneWalk is one worker's cone walker: a pooled visited set and a reused
// DFS stack.
type coneWalk struct {
	seen  *netlist.VisitSet
	stack []netlist.ID
}

// within returns the gates from root down to (but excluding) the given
// leaves, sorted ascending. The leaves are marked visited up front, so the
// walk never enters them.
func (w *coneWalk) within(nl *netlist.Netlist, root netlist.ID, leaves []netlist.ID) []netlist.ID {
	w.seen.Reset()
	for _, l := range leaves {
		w.seen.Visit(l)
	}
	w.seen.Visit(root)
	stack := append(w.stack[:0], root)
	var out []netlist.ID
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, id)
		for _, f := range nl.Fanin(id) {
			if nl.Kind(f).IsComb() && w.seen.Visit(f) {
				stack = append(stack, f)
			}
		}
	}
	w.stack = stack
	slices.Sort(out)
	return out
}
