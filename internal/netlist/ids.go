package netlist

// This file holds the primitives the analyses share over sorted lists of
// node IDs: cut leaves (Algorithm 1), common-support classes (Algorithm 5)
// and chain, select and word groups (Sections II-C and III) are all such
// lists. MergeIDs is the bounded sorted merge, BoundedSupports the one
// bounded cone-input support pass, and Key the map key of an ID list.

import "slices"

// SortedIDs returns ids sorted ascending (a convenience for deterministic
// iteration over sets of nodes).
func SortedIDs(ids []ID) []ID {
	out := append([]ID(nil), ids...)
	slices.Sort(out)
	return out
}

// MergeIDs appends to dst the sorted union of the sorted lists a and b. It
// reports false, with dst back at its original length, when the union has
// more than limit entries. Cut enumeration calls it for every pair of
// fanin cuts, so it appends straight to dst and checks the bound as it
// goes.
func MergeIDs(dst, a, b []ID, limit int) ([]ID, bool) {
	start := len(dst)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
		if len(dst)-start > limit {
			return dst[:start], false
		}
	}
	if len(dst)-start+len(a)-i+len(b)-j > limit {
		return dst[:start], false
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst, true
}

// Key returns ids as a string of four little-endian bytes per ID, to name
// an ID list in a map. Callers sort groups by their keys, so the encoding
// is part of the output order and must not change. A caller keying an
// unordered set passes SortedIDs of it.
func Key(ids []ID) string {
	b := make([]byte, 0, len(ids)*4)
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

// Supports holds the cone-input support of every node of a netlist (the
// sorted primary inputs and latch outputs its full combinational fan-in
// cone reads) while it has at most a limit of entries; a node with more is
// wide and keeps no list.
type Supports struct {
	ids  []ID
	span []span // node id's support is ids[span[id].lo:span[id].hi]
}

// span locates one support in Supports.ids; hi < 0 marks a wide node.
type span struct{ lo, hi int32 }

// BoundedSupports computes every node's support in one pass over
// TopoOrder: a cone input's support is itself, a constant's is empty, and
// a gate's is the sorted merge of its fanins' supports, which is exactly
// its cone-input set. A gate turns wide once a fanin is wide or the merge
// passes limit, which must be at least 1 (a cone input is never wide).
// The supports are stored flat: a gate's last merge appends straight to
// the flat list, and a one-fanin gate shares its fanin's run.
func (n *Netlist) BoundedSupports(limit int) *Supports {
	s := &Supports{ids: make([]ID, 0, len(n.nodes)), span: make([]span, len(n.nodes))}
	var bufs [2][]ID // the running merge of a gate with three or more fanins
	for _, id := range n.TopoOrder() {
		switch k := n.nodes[id].Kind; {
		case k.IsConeInput():
			s.span[id] = span{int32(len(s.ids)), int32(len(s.ids) + 1)}
			s.ids = append(s.ids, id)
			continue
		case !k.IsGate():
			continue // a constant's support is empty
		}
		fanin := n.nodes[id].Fanin
		sp, acc := s.span[fanin[0]], s.Of(fanin[0])
		for i, f := range fanin[1:] {
			ok := sp.hi >= 0 && !s.Wide(f)
			switch {
			case !ok:
			case i == len(fanin)-2: // the last merge
				lo := len(s.ids)
				s.ids, ok = MergeIDs(s.ids, acc, s.Of(f), limit)
				sp = span{int32(lo), int32(len(s.ids))}
			default:
				bufs[i&1], ok = MergeIDs(bufs[i&1][:0], acc, s.Of(f), limit)
				acc = bufs[i&1]
			}
			if !ok {
				sp.hi = -1
				break
			}
		}
		s.span[id] = sp
	}
	return s
}

// Wide reports whether id's support has more entries than the limit.
func (s *Supports) Wide(id ID) bool { return s.span[id].hi < 0 }

// Of returns id's sorted support, or nil when id is wide. The slice is
// capped at its length, so appending to it never writes into another
// node's support.
func (s *Supports) Of(id ID) []ID {
	sp := s.span[id]
	if sp.hi < 0 {
		return nil
	}
	return s.ids[sp.lo:sp.hi:sp.hi]
}
