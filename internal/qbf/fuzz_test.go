package qbf

import (
	"context"
	"testing"

	"netlistre/internal/netlist"
)

// fuzzInstance decodes bytes into a tiny ∃Y∀X word-miter instance: up to 4
// universal and 3 existential inputs, up to 12 mixed gates and LUTs over
// them and both constants, and 1- to 3-bit out and ref words picked from
// the pool. Missing bytes read as zero, so every input decodes.
func fuzzInstance(data []byte) (nl *netlist.Netlist, outs, refs, forall, exists []netlist.ID) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	nl = netlist.New("fuzz")
	nX, nY, width := 1+next()%4, next()%4, 1+next()%3
	nGates := next() % 13
	pool := []netlist.ID{nl.AddConst(false), nl.AddConst(true)}
	for i := 0; i < nX; i++ {
		forall = append(forall, nl.AddInput("x"+string(rune('0'+i))))
	}
	for i := 0; i < nY; i++ {
		exists = append(exists, nl.AddInput("y"+string(rune('0'+i))))
	}
	pool = append(append(pool, forall...), exists...)
	pick := func() netlist.ID { return pool[next()%len(pool)] }
	kinds := []netlist.Kind{netlist.And, netlist.Or, netlist.Nand, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf, netlist.Lut}
	for i := 0; i < nGates; i++ {
		var id netlist.ID
		switch k := kinds[next()%len(kinds)]; k {
		case netlist.Not, netlist.Buf:
			id = nl.AddGate(k, pick())
		case netlist.Lut:
			fan := make([]netlist.ID, 1+next()%3)
			for j := range fan {
				fan[j] = pick()
			}
			mask := uint64(next()) & (uint64(1)<<(uint(1)<<uint(len(fan))) - 1)
			id = nl.AddLut(mask, fan...)
		default:
			fan := make([]netlist.ID, 2+next()%2)
			for j := range fan {
				fan[j] = pick()
			}
			id = nl.AddGate(k, fan...)
		}
		pool = append(pool, id)
	}
	for i := 0; i < width; i++ {
		outs = append(outs, pick())
		refs = append(refs, pick())
	}
	return nl, outs, refs, forall, exists
}

// agreesForAllX reports whether the Y values in y make every out/ref bit
// pair agree for every assignment to forall.
func agreesForAllX(nl *netlist.Netlist, outs, refs, forall []netlist.ID, y map[netlist.ID]bool) bool {
	for xm := 0; xm < 1<<uint(len(forall)); xm++ {
		assign := make(map[netlist.ID]bool, len(forall)+len(y))
		for id, v := range y {
			assign[id] = v
		}
		for i, x := range forall {
			assign[x] = xm>>uint(i)&1 == 1
		}
		vals := nl.Eval(assign)
		for i := range outs {
			if vals[outs[i]] != vals[refs[i]] {
				return false
			}
		}
	}
	return true
}

// FuzzSolveForallEqualWord checks the CEGAR solver against exhaustive
// ∃Y∀X enumeration on tiny netlists.
func FuzzSolveForallEqualWord(f *testing.F) {
	// Besides the all-zero instance, seeds that take two or more
	// refinements: three refuted and three matched, at each word width.
	for _, seed := range [][]byte{
		{},
		{0x24, 0xf7, 0x35, 0x8, 0xfb, 0xb5, 0xb8, 0x32, 0x20, 0xcf, 0x58, 0x63, 0x6c, 0xbc, 0x40, 0xcf, 0xac, 0x9a, 0xeb, 0x3c, 0xc8, 0x47, 0xbc, 0xdc, 0xf1, 0xf, 0x71, 0x7a, 0xa2, 0x62, 0x77, 0xff, 0xa, 0x3a, 0xe, 0xc7, 0x3e, 0x10, 0xff, 0x40, 0x8e},
		{0xac, 0x63, 0x6, 0x8, 0xe3, 0x2f, 0x73, 0x59, 0x64, 0x79, 0xac, 0x74, 0x15, 0xf2, 0x51, 0x14, 0xfb, 0x45, 0x6, 0xbb, 0xf0, 0x29, 0x5a, 0xd2, 0x90, 0x6f, 0x24, 0xb9, 0x8f, 0x6, 0x54, 0xae, 0x56, 0x33, 0x3d},
		{0x44, 0x19, 0xdc, 0x9, 0x57, 0x69, 0x4f, 0xa9, 0x33, 0x4c, 0x16, 0x5a, 0x91, 0xe4, 0x69, 0x33, 0x34, 0x93, 0x92, 0xe0, 0x0, 0xa2, 0xf2, 0xfb, 0xa9, 0xe0, 0xb5, 0xe0, 0xc0, 0x9d, 0x39, 0x52, 0xd6, 0xa4, 0x45, 0xb3, 0x9e, 0x96, 0x51},
		{0x55, 0xb7, 0xad, 0x8, 0xd9, 0xec, 0x98, 0xb9, 0xd3, 0xe6, 0x13, 0xb9, 0xb0, 0xc4, 0xd4, 0xd0, 0x8d, 0xcc, 0xff, 0x14, 0xb, 0x9b, 0xb2, 0x50, 0x69, 0x9, 0x42, 0x57, 0x5e, 0xb4, 0x1d, 0xac, 0x40},
		{0xa3, 0x9f, 0x15, 0xa, 0x89, 0x28, 0x4e, 0x52, 0x84, 0x7a, 0xda, 0xcd, 0x35, 0x38, 0x31, 0xa1, 0xc8, 0x86, 0xf4, 0x97, 0x8d, 0xd0, 0x2, 0xc6, 0xa2, 0xe2, 0x94, 0x15, 0xd5, 0xfb, 0x6b, 0x5b, 0xbe, 0xab, 0x19, 0xae, 0xac, 0x98, 0x63, 0xbd, 0x11, 0x72, 0x51, 0x51, 0x61, 0x3d, 0x33, 0xc6, 0xb9},
		{0xc0, 0xa3, 0xf7, 0x9, 0x6a, 0x2d, 0xba, 0x36, 0x9, 0x22, 0xac, 0xaa, 0x65, 0x9e, 0x6f, 0xd1, 0xe7, 0x4f, 0x55, 0x9f, 0x26, 0x25, 0xa5, 0x2e, 0xfb, 0xce, 0x59, 0x31, 0xe9, 0x7d, 0xb, 0xbe, 0x66, 0x69, 0xdd, 0x86, 0x87, 0xd6, 0x48, 0x85, 0x5, 0xc, 0x1f, 0x8e},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		nl, outs, refs, forall, exists := fuzzInstance(data)
		res := SolveForallEqualWord(context.Background(), nl, outs, refs, forall, exists, 0)
		// Every refinement rules out the current candidate, so the loop
		// stops within one refinement per Y assignment; running into the
		// iteration limit here would be a refinement that excludes nothing.
		if res.Iterations > 1<<uint(len(exists)) {
			t.Fatalf("%d refinements for %d existential signals", res.Iterations, len(exists))
		}
		if res.Aborted {
			return
		}
		want := false
		for ym := 0; ym < 1<<uint(len(exists)) && !want; ym++ {
			y := make(map[netlist.ID]bool, len(exists))
			for i, id := range exists {
				y[id] = ym>>uint(i)&1 == 1
			}
			want = agreesForAllX(nl, outs, refs, forall, y)
		}
		if res.Found != want {
			t.Fatalf("Found = %v, exhaustive = %v (outs %v refs %v)", res.Found, want, outs, refs)
		}
		if res.Found && !agreesForAllX(nl, outs, refs, forall, res.Assignment) {
			t.Fatalf("assignment %v leaves a mismatching bit", res.Assignment)
		}
	})
}
