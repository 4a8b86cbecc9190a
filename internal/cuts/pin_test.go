package cuts

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"netlistre/internal/gen"
	"netlistre/internal/netlist"
)

// cutDigest hashes every node's cut set in node-ID order: the node ID, the
// cut count, and per cut its leaves, table bits and arity. Two enumerations
// digest equal only if they produce the same cuts in the same order.
func cutDigest(n *netlist.Netlist, sets map[netlist.ID][]Cut) string {
	h := sha256.New()
	var buf []byte
	for id := netlist.ID(0); int(id) < n.Len(); id++ {
		cs := sets[id]
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(id))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cs)))
		for _, c := range cs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Leaves)))
			for _, l := range c.Leaves {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(l))
			}
			buf = binary.LittleEndian.AppendUint64(buf, c.Table.Bits)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Table.N))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pinnedCutDigests are the default-option cut digests of every labeled
// article, its LUT twin, and BigSoC. A change to enumeration order, pruning
// or tables moves them; a pure performance change must not.
var pinnedCutDigests = map[string]string{
	"mips16":            "c3f69970e9e19bb7",
	"riscfpu":           "76dc1086125d080e",
	"router":            "0cf64cb77d5476f4",
	"oc8051":            "d094d0572c561a68",
	"aemb":              "b09588f468c9da70",
	"msp430":            "2a83609c8bfdfab2",
	"usb":               "78ebdfdf618dc9bb",
	"evoter":            "667aca96f37cda5b",
	"oc8051-trojan":     "1dd8c87021e50938",
	"evoter-trojan":     "3f9847bb6ed6f21b",
	"mips16-lut":        "21421f561abaa7bd",
	"riscfpu-lut":       "b8eb88b24d309702",
	"router-lut":        "b1decffb428a485a",
	"oc8051-lut":        "7379f756609ebb32",
	"aemb-lut":          "d106fa0a3dca8df4",
	"msp430-lut":        "42bc77e040199f1b",
	"usb-lut":           "b88ecd8421d7f8eb",
	"evoter-lut":        "d514f4561604f235",
	"oc8051-trojan-lut": "183223bbc53cf742",
	"evoter-trojan-lut": "d8850b9009839ce7",
	"bigsoc":            "fa3692d17f16b880",
	"mixed":             "9c35a6bd3a66fe7d",
}

// TestPinnedCutDigests enumerates every pinned design with default options
// and compares its cut digest.
func TestPinnedCutDigests(t *testing.T) {
	var names []string
	for _, name := range gen.LabeledArticleNames() {
		if !strings.HasSuffix(name, "-lut") {
			names = append(names, name, name+"-lut")
		}
	}
	if len(names) != 20 {
		t.Fatalf("%d labeled articles with LUT twins, want 20", len(names))
	}
	designs := make(map[string]func() *netlist.Netlist)
	for _, name := range names {
		name := name
		designs[name] = func() *netlist.Netlist {
			nl, _, err := gen.LabeledArticle(name)
			if err != nil {
				t.Fatal(err)
			}
			return nl
		}
	}
	designs["bigsoc"] = gen.BigSoC
	designs["mixed"] = func() *netlist.Netlist { return randomMixed(rand.New(rand.NewSource(11)), 10, 1500) }
	if len(designs) != len(pinnedCutDigests) {
		t.Fatalf("%d designs, %d pinned digests", len(designs), len(pinnedCutDigests))
	}
	for name, build := range designs {
		nl := build()
		if got, want := cutDigest(nl, Enumerate(nl, Options{})), pinnedCutDigests[name]; got != want {
			t.Errorf("%s: cut digest %s, pinned %s", name, got, want)
		}
	}
}

// randomMixed builds a random netlist that interleaves gates (2-3 inputs,
// every foldable kind, plus Not/Buf) with k-input LUT cells (k = 1..6) in
// topological order, so enumeration alternates between enumerateGate and
// enumerateLut from node to node.
func randomMixed(rng *rand.Rand, nIn, nNodes int) *netlist.Netlist {
	n := netlist.New("mixed")
	var pool []netlist.ID
	for i := 0; i < nIn; i++ {
		pool = append(pool, n.AddInput(string(rune('a'+i))))
	}
	kinds := []netlist.Kind{netlist.And, netlist.Or, netlist.Nand, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf}
	pick := func(k int) []netlist.ID {
		fan := make([]netlist.ID, k)
		for j := range fan {
			// Prefer recent nodes so cones are deep and cuts non-trivial.
			lo := len(pool) - 24
			if lo < 0 || rng.Intn(4) == 0 {
				lo = 0
			}
			fan[j] = pool[lo+rng.Intn(len(pool)-lo)]
		}
		return fan
	}
	for i := 0; i < nNodes; i++ {
		if rng.Intn(2) == 0 {
			k := 1 + rng.Intn(6)
			mask := rng.Uint64()
			if k < 6 {
				mask &= uint64(1)<<(1<<uint(k)) - 1
			}
			pool = append(pool, n.AddLut(mask, pick(k)...))
			continue
		}
		k := kinds[rng.Intn(len(kinds))]
		if k == netlist.Not || k == netlist.Buf {
			pool = append(pool, n.AddGate(k, pick(1)...))
			continue
		}
		pool = append(pool, n.AddGate(k, pick(2+rng.Intn(2))...))
	}
	return n
}

// TestMixedCutsSound enumerates random mixed gate/LUT netlists and checks
// every cut against the netlist itself: leaves sorted, distinct and at most
// K, and the table equal to the root's value for every leaf assignment,
// with internal leaves forced rather than computed. Cut sets from one node
// feed the next node's merge, so a scratch buffer reused between gate and
// LUT folds that aliased a kept cut's leaves would show here as a wrong
// leaf set or table.
func TestMixedCutsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		n := randomMixed(rng, 6+rng.Intn(4), 120)
		sets := Enumerate(n, Options{})
		for id := netlist.ID(0); int(id) < n.Len(); id++ {
			if !n.Kind(id).IsGate() {
				continue
			}
			for _, c := range sets[id] {
				if len(c.Leaves) > 6 {
					t.Fatalf("node %d: cut %v has more than 6 leaves", id, c.Leaves)
				}
				for j := 1; j < len(c.Leaves); j++ {
					if c.Leaves[j-1] >= c.Leaves[j] {
						t.Fatalf("node %d: cut leaves %v not sorted and distinct", id, c.Leaves)
					}
				}
				checkCutForced(t, n, id, c)
			}
		}
	}
}

// checkCutForced evaluates root's cone over every assignment to c's
// leaves, treating each leaf as a free variable even when it is a gate.
func checkCutForced(t *testing.T, n *netlist.Netlist, root netlist.ID, c Cut) {
	t.Helper()
	for row := uint(0); row < 1<<uint(len(c.Leaves)); row++ {
		vals := make(map[netlist.ID]bool, len(c.Leaves))
		for j, l := range c.Leaves {
			vals[l] = row>>uint(j)&1 == 1
		}
		var eval func(id netlist.ID) bool
		eval = func(id netlist.ID) bool {
			if v, ok := vals[id]; ok {
				return v
			}
			node := n.Node(id)
			switch node.Kind {
			case netlist.Const0:
				return false
			case netlist.Const1:
				return true
			case netlist.Input, netlist.Latch:
				t.Fatalf("cut %v of node %d does not cut boundary node %d", c.Leaves, root, id)
			}
			in := make([]uint64, len(node.Fanin))
			for j, f := range node.Fanin {
				if eval(f) {
					in[j] = 1
				}
			}
			v := netlist.EvalWord(node.Kind, node.Mask, in)&1 == 1
			vals[id] = v
			return v
		}
		if got := eval(root); got != c.Table.Eval(row) {
			t.Fatalf("cut %v of node %d: row %d evaluates to %v, table says %v",
				c.Leaves, root, row, got, c.Table.Eval(row))
		}
	}
}
