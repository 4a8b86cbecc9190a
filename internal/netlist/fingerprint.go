package netlist

// Content-addressed netlist fingerprinting. Fingerprint returns a
// canonical SHA-256 over the netlist's functional content, independent of
// the order in which nodes were created: the same circuit built by hand,
// parsed from Verilog, or parsed from its BLIF serialization (which
// resolves nets in a different order) hashes identically, as long as the
// serialization preserves the gate-level structure — BLIF has no native
// Nand/Nor/Xor/Xnor, so writing those kinds lowers them to cube networks
// that are genuinely different graphs and hash differently. The analysis
// service uses the fingerprint as the netlist half of its report-cache
// key; it is also exposed as `revan -fingerprint`.
//
// Canonicalization is a Weisfeiler-Leman-style refinement: every node
// starts with a label derived from its local content (kind, name, and the
// primary-output ports it drives), then labels are repeatedly re-hashed
// with the labels of their fanins and fanouts until the partition into
// label classes stops refining. Sorting nodes by final label yields a
// canonical order; the serialization written in that order references
// fanins by canonical index, so the digest covers the full edge structure.
// Nodes still sharing a label after convergence are structurally
// indistinguishable to the refinement and are serialized as identical
// lines, so their relative order cannot affect the digest.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"netlistre/internal/truth"
)

// maxRefineRounds bounds label refinement. Named netlists converge in one
// or two rounds (names separate almost every class immediately); the cap
// only matters for pathological fully-anonymous regular structures, where
// stopping early merely coarsens the canonical order inside symmetric
// classes.
const maxRefineRounds = 64

type fpLabel [sha256.Size]byte

// commutative reports whether a node kind's fanin order is semantically
// irrelevant, in which case the fingerprint sorts the fanin references so
// argument permutations do not change the hash.
func commutative(k Kind) bool {
	switch k {
	case And, Or, Nand, Nor, Xor, Xnor:
		return true
	}
	return false
}

// lutCanon holds the permutation-canonical view of one Lut node: the mask in
// its truth.Canon form and the fanin list reordered into the canonical
// argument slots. Hashing and serializing LUTs through this view gives them
// the same input-permutation treatment the Boolean matcher applies to cut
// functions: a LUT whose mask and fanin list are permuted together (as a
// writer/reader pair or a technology mapper may do) fingerprints
// identically, while LUTs with genuinely different functions do not.
type lutCanon struct {
	mask  uint64
	fanin []ID
}

func canonLut(node *Node) lutCanon {
	t := truth.Table{Bits: node.Mask, N: len(node.Fanin)}
	ct, perm := t.Canon()
	fanin := make([]ID, len(node.Fanin))
	for v, f := range node.Fanin {
		fanin[perm[v]] = f
	}
	return lutCanon{mask: ct.Bits, fanin: fanin}
}

// Fingerprint returns the canonical SHA-256 of the netlist as a lowercase
// hex string. Two netlists with the same fingerprint have the same design
// name, the same primary outputs in declaration order, and isomorphic
// node structure with matching kinds and node names — so an analysis
// report computed for one is valid for the other.
func (n *Netlist) Fingerprint() string {
	numNodes := len(n.nodes)
	labels := make([]fpLabel, numNodes)
	next := make([]fpLabel, numNodes)

	// Output ports driven by each node, in declaration order.
	outsOf := make(map[ID][]string)
	for _, p := range n.outputs {
		if p.Driver >= 0 && int(p.Driver) < numNodes {
			outsOf[p.Driver] = append(outsOf[p.Driver], p.Name)
		}
	}

	// Permutation-canonical view of every Lut node, computed once and used
	// by round 0, the refinement rounds, and the final serialization.
	var luts map[ID]lutCanon
	for i := range n.nodes {
		if n.nodes[i].Kind == Lut {
			if luts == nil {
				luts = make(map[ID]lutCanon)
			}
			luts[ID(i)] = canonLut(&n.nodes[i])
		}
	}

	// Round 0: local content only.
	h := sha256.New()
	var scratch [8]byte
	writeStr := func(s string) {
		binary.LittleEndian.PutUint64(scratch[:], uint64(len(s)))
		h.Write(scratch[:])
		h.Write([]byte(s))
	}
	for i, node := range n.nodes {
		h.Reset()
		h.Write([]byte{0x00, byte(node.Kind)})
		if node.Kind == Lut {
			binary.LittleEndian.PutUint64(scratch[:], luts[ID(i)].mask)
			h.Write(scratch[:])
		}
		writeStr(node.Name)
		for _, out := range outsOf[ID(i)] {
			writeStr(out)
		}
		h.Sum(labels[i][:0])
	}

	distinct := func(ls []fpLabel) int {
		seen := make(map[fpLabel]struct{}, len(ls))
		for _, l := range ls {
			seen[l] = struct{}{}
		}
		return len(seen)
	}

	classes := distinct(labels)
	lutFanin := func(id ID) []ID { return luts[id].fanin }
	for round := 0; classes < numNodes && round < maxRefineRounds; round++ {
		refineRound(n, 0x01, lutFanin, nil, labels, next)
		labels, next = next, labels
		refined := distinct(labels)
		if refined == classes {
			break
		}
		classes = refined
	}

	// Canonical order: by final label, original ID only inside classes the
	// refinement could not separate (such nodes serialize identically).
	order := make([]ID, numNodes)
	for i := range order {
		order[i] = ID(i)
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := &labels[order[a]], &labels[order[b]]
		for k := range la {
			if la[k] != lb[k] {
				return la[k] < lb[k]
			}
		}
		return order[a] < order[b]
	})
	rank := make([]int, numNodes)
	for r, id := range order {
		rank[id] = r
	}

	// Serialize in canonical order and hash.
	dig := sha256.New()
	fmt.Fprintf(dig, "netlistre-fp-v1\nname %q\n", n.Name)
	var fan []int
	for _, id := range order {
		node := &n.nodes[id]
		fan = fan[:0]
		fanin := node.Fanin
		kindToken := node.Kind.String()
		if node.Kind == Lut {
			lc := luts[id]
			fanin = lc.fanin
			kindToken = fmt.Sprintf("lut:%#x", lc.mask)
		}
		for _, f := range fanin {
			if f >= 0 && int(f) < numNodes {
				fan = append(fan, rank[f])
			} else {
				fan = append(fan, -1) // dangling (pre-Validate input)
			}
		}
		if commutative(node.Kind) {
			sort.Ints(fan)
		}
		fmt.Fprintf(dig, "node %s %q %v\n", kindToken, node.Name, fan)
	}
	for _, p := range n.outputs {
		r := -1
		if p.Driver >= 0 && int(p.Driver) < numNodes {
			r = rank[p.Driver]
		}
		fmt.Fprintf(dig, "output %q %d\n", p.Name, r)
	}
	return hex.EncodeToString(dig.Sum(nil))
}

// refineRound runs one Weisfeiler-Leman round over n, writing each node's
// new label to next: the hash of tag, the node's label, its fanins' labels
// (in canonical argument-slot order for a Lut, whose slots lutFanin gives;
// sorted for commutative kinds), tag+1 and its sorted fanout labels. A node
// marked in fixed (nil marks none) keeps its label.
func refineRound(n *Netlist, tag byte, lutFanin func(ID) []ID, fixed []bool, labels, next []fpLabel) {
	h := sha256.New()
	var neigh []fpLabel
	for i := range n.nodes {
		if fixed != nil && fixed[i] {
			next[i] = labels[i]
			continue
		}
		node := &n.nodes[i]
		h.Reset()
		h.Write([]byte{tag})
		h.Write(labels[i][:])
		fanin := node.Fanin
		if node.Kind == Lut {
			fanin = lutFanin(ID(i))
		}
		neigh = neigh[:0]
		for _, f := range fanin {
			if f >= 0 && int(f) < len(n.nodes) {
				neigh = append(neigh, labels[f])
			}
		}
		if commutative(node.Kind) {
			sortLabels(neigh)
		}
		for _, l := range neigh {
			h.Write(l[:])
		}
		h.Write([]byte{tag + 1})
		neigh = neigh[:0]
		for _, f := range n.fanout[i] {
			neigh = append(neigh, labels[f])
		}
		sortLabels(neigh)
		for _, l := range neigh {
			h.Write(l[:])
		}
		h.Sum(next[i][:0])
	}
}

func sortLabels(ls []fpLabel) {
	sort.Slice(ls, func(i, j int) bool {
		a, b := &ls[i], &ls[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}
