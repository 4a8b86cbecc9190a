package truth

import "sync"

// This file defines the bitslice function library used by the cut-based
// matching algorithm (Section II-A). Each entry is a small Boolean function
// that appears as the replicated 1-bit slice of a common multibit datapath
// operator. Matching a cut against an entry yields both the slice class and
// the correspondence between cut leaves and the slice's formal arguments
// (e.g. which leaf is the select of a mux).

// Class identifies a library bitslice function.
type Class uint8

// Library bitslice classes.
const (
	ClassUnknown   Class = iota
	ClassMux2            // f(d0, d1, s) = s ? d1 : d0
	ClassFASum           // f(a, b, cin) = a ^ b ^ cin        (full-adder sum)
	ClassFACarry         // f(a, b, cin) = maj(a, b, cin)     (full-adder carry)
	ClassSubBorrow       // f(a, b, bin) = maj(~a, b, bin)    (full-subtractor borrow)
	ClassHASum           // f(a, b) = a ^ b                   (half-adder sum / xor2)
	ClassHACarry         // f(a, b) = a & b                   (half-adder carry / and2)
	ClassXnor2           // f(a, b) = ~(a ^ b)                (equality slice)
	ClassOr2             // f(a, b) = a | b
	ClassNor2            // f(a, b) = ~(a | b)
	ClassNand2           // f(a, b) = ~(a & b)
	ClassAndNot          // f(a, b) = a & ~b                  (gating / less-than slice)
	ClassOrNot           // f(a, b) = a | ~b                  (greater-equal slice)
	ClassMinterm2        // f(a, b) = ~a & ~b                 (2-input decoder slice, minterm 0)
	ClassMinterm3        // f(a, b, c) = ~a & ~b & ~c         (3-input decoder slice)
	ClassAnd3            // f(a, b, c) = a & b & c
	ClassOr3             // f(a, b, c) = a | b | c
	ClassXor3Not         // f(a, b, cin) = ~(a ^ b ^ cin)     (subtractor difference, one polarity)
	ClassMux2Inv         // f(d0, d1, s) = s ? ~d1 : ~d0      (inverting mux)
	ClassAoi21           // f(a, b, c) = ~((a & b) | c)
	ClassOai21           // f(a, b, c) = ~((a | b) & c)
	ClassMux4            // f(d0..d3, s0, s1) = d[s1s0]       (4:1 mux slice)
	numClasses
)

var classNames = [numClasses]string{
	"unknown", "mux2", "fa-sum", "fa-carry", "sub-borrow", "ha-sum",
	"ha-carry", "xnor2", "or2", "nor2", "nand2", "and-not", "or-not",
	"minterm2", "minterm3", "and3", "or3", "xor3-not", "mux2-inv",
	"aoi21", "oai21", "mux4",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "class(?)"
}

// Entry is one library function.
type Entry struct {
	Class Class
	Table Table
	// ArgNames documents the formal arguments, index-aligned with the
	// table's variables.
	ArgNames []string
}

// buildEntry evaluates f over all rows of an n-variable table.
func buildEntry(class Class, n int, args []string, f func(row uint) bool) Entry {
	var t Table
	t.N = n
	for r := uint(0); r < 1<<uint(n); r++ {
		if f(r) {
			t.Bits |= 1 << r
		}
	}
	return Entry{Class: class, Table: t, ArgNames: args}
}

func bit(r uint, i int) bool { return r>>uint(i)&1 == 1 }

// Library returns the default bitslice library. The returned slice is
// freshly allocated and may be extended by callers with design-specific
// slices (Section VI-B.1).
func Library() []Entry {
	maj := func(a, b, c bool) bool { return a && b || b && c || c && a }
	return []Entry{
		buildEntry(ClassMux2, 3, []string{"d0", "d1", "s"}, func(r uint) bool {
			if bit(r, 2) {
				return bit(r, 1)
			}
			return bit(r, 0)
		}),
		buildEntry(ClassMux2Inv, 3, []string{"d0", "d1", "s"}, func(r uint) bool {
			if bit(r, 2) {
				return !bit(r, 1)
			}
			return !bit(r, 0)
		}),
		buildEntry(ClassFASum, 3, []string{"a", "b", "cin"}, func(r uint) bool {
			return bit(r, 0) != bit(r, 1) != bit(r, 2)
		}),
		buildEntry(ClassXor3Not, 3, []string{"a", "b", "cin"}, func(r uint) bool {
			return !(bit(r, 0) != bit(r, 1) != bit(r, 2))
		}),
		buildEntry(ClassFACarry, 3, []string{"a", "b", "cin"}, func(r uint) bool {
			return maj(bit(r, 0), bit(r, 1), bit(r, 2))
		}),
		buildEntry(ClassSubBorrow, 3, []string{"a", "b", "bin"}, func(r uint) bool {
			return maj(!bit(r, 0), bit(r, 1), bit(r, 2))
		}),
		buildEntry(ClassHASum, 2, []string{"a", "b"}, func(r uint) bool {
			return bit(r, 0) != bit(r, 1)
		}),
		buildEntry(ClassXnor2, 2, []string{"a", "b"}, func(r uint) bool {
			return bit(r, 0) == bit(r, 1)
		}),
		buildEntry(ClassHACarry, 2, []string{"a", "b"}, func(r uint) bool {
			return bit(r, 0) && bit(r, 1)
		}),
		buildEntry(ClassOr2, 2, []string{"a", "b"}, func(r uint) bool {
			return bit(r, 0) || bit(r, 1)
		}),
		buildEntry(ClassNor2, 2, []string{"a", "b"}, func(r uint) bool {
			return !(bit(r, 0) || bit(r, 1))
		}),
		buildEntry(ClassNand2, 2, []string{"a", "b"}, func(r uint) bool {
			return !(bit(r, 0) && bit(r, 1))
		}),
		buildEntry(ClassAndNot, 2, []string{"a", "b"}, func(r uint) bool {
			return bit(r, 0) && !bit(r, 1)
		}),
		buildEntry(ClassOrNot, 2, []string{"a", "b"}, func(r uint) bool {
			return bit(r, 0) || !bit(r, 1)
		}),
		// Note: the 2-input decoder minterm ~a&~b is function-identical to
		// nor2 and is therefore covered by the ClassNor2 entry.
		buildEntry(ClassMinterm3, 3, []string{"a", "b", "c"}, func(r uint) bool {
			return !bit(r, 0) && !bit(r, 1) && !bit(r, 2)
		}),
		buildEntry(ClassAnd3, 3, []string{"a", "b", "c"}, func(r uint) bool {
			return bit(r, 0) && bit(r, 1) && bit(r, 2)
		}),
		buildEntry(ClassOr3, 3, []string{"a", "b", "c"}, func(r uint) bool {
			return bit(r, 0) || bit(r, 1) || bit(r, 2)
		}),
		buildEntry(ClassAoi21, 3, []string{"a", "b", "c"}, func(r uint) bool {
			return !(bit(r, 0) && bit(r, 1) || bit(r, 2))
		}),
		buildEntry(ClassOai21, 3, []string{"a", "b", "c"}, func(r uint) bool {
			return !((bit(r, 0) || bit(r, 1)) && bit(r, 2))
		}),
		buildEntry(ClassMux4, 6, []string{"d0", "d1", "d2", "d3", "s0", "s1"}, func(r uint) bool {
			sel := 0
			if bit(r, 4) {
				sel |= 1
			}
			if bit(r, 5) {
				sel |= 2
			}
			return bit(r, sel)
		}),
	}
}

var defaultIndex struct {
	once sync.Once
	ix   *Index
}

// DefaultIndex returns the canonical-form index of Library(), built once
// per process. The default library lists both output polarities of every
// slice explicitly, so permutation closure (NewIndex) matches exactly what
// MatchAgainst accepts. The index is immutable and safe for concurrent use.
func DefaultIndex() *Index {
	defaultIndex.once.Do(func() {
		defaultIndex.ix = NewIndex(Library())
	})
	return defaultIndex.ix
}
