package truth

import (
	"strings"
	"testing"
)

func TestStringFormat(t *testing.T) {
	v := Var(0, 2) // 0b1010 over 2 vars
	s := v.String()
	if !strings.Contains(s, "/2") || !strings.Contains(s, "a") {
		t.Errorf("String() = %q", s)
	}
	if got := Const(false, 0).String(); !strings.Contains(got, "/0") {
		t.Errorf("String() on 0-ary = %q", got)
	}
}

func TestClassStrings(t *testing.T) {
	for c := ClassUnknown; c < numClasses; c++ {
		if c.String() == "" || c.String() == "class(?)" {
			t.Errorf("class %d unnamed", c)
		}
	}
	if Class(200).String() != "class(?)" {
		t.Error("out-of-range class string")
	}
}

func TestSelectAndChainArgs(t *testing.T) {
	if got := SelectArgs(ClassMux2); len(got) != 1 || got[0] != 2 {
		t.Errorf("mux2 selects = %v", got)
	}
	if got := SelectArgs(ClassMux4); len(got) != 2 {
		t.Errorf("mux4 selects = %v", got)
	}
	if got := SelectArgs(ClassFASum); got != nil {
		t.Errorf("fa-sum selects = %v", got)
	}
	if ChainArgs(ClassFACarry) != 2 || ChainArgs(ClassSubBorrow) != 2 {
		t.Error("carry chain args wrong")
	}
	if ChainArgs(ClassMux2) != -1 || ChainArgs(ClassHASum) != -1 {
		t.Error("non-chain classes must report -1")
	}
}

func TestVarPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Var out of range did not panic")
		}
	}()
	Var(3, 3)
}

func TestExpandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Expand with wrong map length did not panic")
		}
	}()
	Var(0, 2).Expand([]int{0}, 3)
}

func TestPermutePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Permute with wrong length did not panic")
		}
	}()
	Var(0, 2).Permute([]int{0})
}

func TestCanonZeroVars(t *testing.T) {
	c, perm := Const(true, 0).Canon()
	if c.N != 0 || perm != nil {
		t.Errorf("canon of 0-ary = %v %v", c, perm)
	}
}

func TestShrinkNoVacuous(t *testing.T) {
	f := Var(0, 3).Xor(Var(1, 3)).Xor(Var(2, 3))
	s, m := f.Shrink()
	if s.N != 3 || m != 0b111 {
		t.Errorf("shrink of full-support fn changed arity: %v %v", s, m)
	}
	if s.Bits != f.Bits {
		t.Error("shrink altered full-support table")
	}
}

func TestMatchAgainstArityMismatch(t *testing.T) {
	if _, ok := Var(0, 2).MatchAgainst(Var(0, 3)); ok {
		t.Error("matched across arities")
	}
	// Ones-count fast path.
	and2 := Var(0, 2).And(Var(1, 2))
	or2 := Var(0, 2).Or(Var(1, 2))
	if _, ok := and2.MatchAgainst(or2); ok {
		t.Error("and2 matched or2")
	}
}

func TestLibraryArgDocumentation(t *testing.T) {
	for _, e := range Library() {
		for _, name := range e.ArgNames {
			if name == "" {
				t.Errorf("%v: empty arg name", e.Class)
			}
		}
	}
}
