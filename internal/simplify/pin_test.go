package simplify

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"netlistre/internal/gen"
	"netlistre/internal/netlist"
)

// simplifyDigest hashes a simplification result: per simplified node its
// kind, mask, fanins, name and fanout list in order, then the output ports,
// RemovedGates and the image of every original node. Two results digest
// equal only if they are the same netlist with the same node IDs and the
// same map.
func simplifyDigest(orig *netlist.Netlist, res Result) string {
	h := sha256.New()
	var buf []byte
	ids := func(xs []netlist.ID) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(xs)))
		for _, x := range xs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		}
	}
	str := func(s string) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	nl := res.Netlist
	for id := netlist.ID(0); int(id) < nl.Len(); id++ {
		node := nl.Node(id)
		buf = append(buf[:0], byte(node.Kind))
		buf = binary.LittleEndian.AppendUint64(buf, node.Mask)
		ids(node.Fanin)
		str(node.Name)
		ids(nl.Fanout(id))
		h.Write(buf)
	}
	buf = buf[:0]
	for _, p := range nl.Outputs() {
		str(p.Name)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Driver))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(res.RemovedGates))
	for id := netlist.ID(0); int(id) < orig.Len(); id++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(res.NodeMap[id]))
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pinnedSimplify are the simplification digests of raw BigSoC at three
// noise seeds and of every labeled article under electrical noise (seed 1,
// probability 0.15). A change to node order, fanout order, names, ports or
// the node map moves them; a pure performance change must not.
var pinnedSimplify = map[string]string{
	"bigsoc/1":      "c11778ac9943df81",
	"bigsoc/2":      "018bb3921d794028",
	"bigsoc/3":      "a9c972516d1d705e",
	"mips16":        "1db0cc713d3afd30",
	"riscfpu":       "b82d596b2e90ea01",
	"router":        "1f67c9711a36277f",
	"oc8051":        "6da7471fd42cc57f",
	"aemb":          "7a8784721e653059",
	"msp430":        "98541c78f94437bc",
	"usb":           "ed3d3b7fa9643ccf",
	"evoter":        "584b7391e6b86916",
	"oc8051-trojan": "00496882f3f42700",
	"evoter-trojan": "bfdba2e6ed5a3474",
	"mips16-lut":    "5b804f985f42b2d6",
	"riscfpu-lut":   "13e8b174eecd1683",
	"router-lut":    "5fc7b785dc913547",
	"oc8051-lut":    "6927168645283a2e",
	"aemb-lut":      "ad5ff2987af396ba",
	"msp430-lut":    "da4709cebfe72da3",
	"usb-lut":       "3602de06bddc4be4",
	"evoter-lut":    "fe1fc03556a681cb",
}

// TestPinnedSimplify simplifies every pinned design and compares its digest.
func TestPinnedSimplify(t *testing.T) {
	designs := make(map[string]func() *netlist.Netlist)
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		designs[fmt.Sprintf("bigsoc/%d", seed)] = func() *netlist.Netlist {
			return gen.SoC("bigsoc", gen.BigSoCCoreNames(), seed, 0.22)
		}
	}
	for _, name := range gen.LabeledArticleNames() {
		name := name
		designs[name] = func() *netlist.Netlist {
			nl, _, err := gen.LabeledArticle(name)
			if err != nil {
				t.Fatal(err)
			}
			return gen.AddElectricalNoise(nl, 1, 0.15)
		}
	}
	if len(designs) != 21 || len(pinnedSimplify) != len(designs) {
		t.Errorf("%d designs, %d pinned digests, want 21 of each", len(designs), len(pinnedSimplify))
	}
	for name, build := range designs {
		nl := build()
		if got, want := simplifyDigest(nl, Run(nl)), pinnedSimplify[name]; got != want {
			t.Errorf("%q: %q, // pinned %q", name, got, want)
		}
	}
}
