package netlist

import (
	"math/rand"
	"slices"
	"testing"
)

// TestBoundedSupports checks the one-pass supports against ConeOfAll on
// random netlists with LUTs, latches and constants: a node is wide exactly
// when its cone reads more inputs than the limit, and a narrow node's
// support is its cone's input set.
func TestBoundedSupports(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 40; trial++ {
		n := randomNetlist(rng, 2+rng.Intn(10), 5+rng.Intn(40), rng.Intn(5))
		c0, c1 := n.AddConst(false), n.AddConst(true)
		n.AddGate(And, c0, c1)
		n.AddGate(Or, c1, ID(rng.Intn(n.Len()-3)))
		for _, limit := range []int{1, 6, 10} {
			s := n.BoundedSupports(limit)
			for id := ID(0); int(id) < n.Len(); id++ {
				want := n.ConeOfAll([]ID{id}).Inputs
				if wide := len(want) > limit; s.Wide(id) != wide {
					t.Fatalf("trial %d limit %d: node %d Wide = %v, cone inputs %v", trial, limit, id, s.Wide(id), want)
				}
				if got := s.Of(id); !s.Wide(id) && !slices.Equal(got, want) || s.Wide(id) && got != nil {
					t.Fatalf("trial %d limit %d: node %d support %v, cone inputs %v", trial, limit, id, got, want)
				}
			}
		}
	}
}

// TestBoundedSupportsAppend appends to every returned support and checks
// that no other node's support changed: supports share one flat array,
// and module ports keep the slices.
func TestBoundedSupportsAppend(t *testing.T) {
	n := randomNetlist(rand.New(rand.NewSource(5)), 6, 60, 3)
	s := n.BoundedSupports(6)
	before := make([][]ID, n.Len())
	for id := range before {
		before[id] = slices.Clone(s.Of(ID(id)))
	}
	for id := ID(0); int(id) < n.Len(); id++ {
		_ = append(s.Of(id), Nil, Nil)
		for other := range before {
			if !slices.Equal(s.Of(ID(other)), before[other]) {
				t.Fatalf("appending to node %d's support changed node %d's: %v, was %v", id, other, s.Of(ID(other)), before[other])
			}
		}
	}
}

// TestMergeIDs checks the bounded merge against a map-based union at every
// limit from 0 to len(a)+len(b), appending after a prefix that must stay
// intact; a failed merge leaves dst at its original length.
func TestMergeIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	randSet := func() []ID {
		var ids []ID
		for i := rng.Intn(8); i > 0; i-- {
			ids = append(ids, ID(rng.Intn(20)))
		}
		slices.Sort(ids)
		return slices.Compact(ids)
	}
	for trial := 0; trial < 300; trial++ {
		a, b := randSet(), randSet()
		union := map[ID]bool{}
		for _, id := range append(slices.Clone(a), b...) {
			union[id] = true
		}
		var want []ID
		for id := range union {
			want = append(want, id)
		}
		slices.Sort(want)
		prefix := []ID{100, 101}[:rng.Intn(3)]
		for limit := 0; limit <= len(a)+len(b); limit++ {
			dst := append(make([]ID, 0, rng.Intn(4)), prefix...)
			got, ok := MergeIDs(dst, a, b, limit)
			if !slices.Equal(got[:len(prefix)], prefix) {
				t.Fatalf("MergeIDs(%v, %v, %v, %d) overwrote the prefix: %v", prefix, a, b, limit, got)
			}
			if ok != (len(want) <= limit) {
				t.Fatalf("MergeIDs(%v, %v, %d) ok = %v, union %v", a, b, limit, ok, want)
			}
			if !ok && len(got) != len(prefix) {
				t.Fatalf("failed MergeIDs(%v, %v, %d) left dst at length %d, want %d", a, b, limit, len(got), len(prefix))
			}
			if ok && !slices.Equal(got[len(prefix):], want) {
				t.Fatalf("MergeIDs(%v, %v, %d) = %v, want %v", a, b, limit, got[len(prefix):], want)
			}
		}
	}
}

// TestKeyBytes pins Key's encoding, four little-endian bytes per ID:
// callers sort groups by their keys, so the bytes fix the output order.
func TestKeyBytes(t *testing.T) {
	if got, want := Key([]ID{1, 0x01020304, Nil}), "\x01\x00\x00\x00\x04\x03\x02\x01\xff\xff\xff\xff"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	if Key(nil) != "" {
		t.Errorf("Key(nil) = %q, want empty", Key(nil))
	}
}
