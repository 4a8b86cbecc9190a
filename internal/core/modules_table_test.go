package core_test

// Pinned module table: every module the portfolio infers on each labeled
// article (and on the simplified BigSoC) is hashed with its type, name,
// width, elements, ports and attributes. The goldens print no attributes
// and the overlap selection digest hashes only names and elements, so a
// changed QBF side-input assignment or RAM select port moves a row here
// and nowhere else.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sort"
	"testing"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/simplify"
)

// modulesDigest hashes the modules in order, with ports sorted by name and
// attributes sorted by key.
func modulesDigest(mods []*module.Module) string {
	h := sha256.New()
	for _, m := range mods {
		writeInt(h, int(m.Type))
		writeString(h, m.Name)
		writeInt(h, m.Width)
		writeIDs(h, m.Elements)
		names := make([]string, 0, len(m.Ports))
		for name := range m.Ports {
			names = append(names, name)
		}
		sort.Strings(names)
		writeInt(h, len(names))
		for _, name := range names {
			writeString(h, name)
			writeIDs(h, m.Ports[name])
		}
		keys := make([]string, 0, len(m.Attr))
		for k := range m.Attr {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		writeInt(h, len(keys))
		for _, k := range keys {
			writeString(h, k)
			writeString(h, m.Attr[k])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeInt(h hash.Hash, v int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	h.Write(buf[:])
}

func writeString(h hash.Hash, s string) {
	writeInt(h, len(s))
	h.Write([]byte(s))
}

func writeIDs(h hash.Hash, ids []netlist.ID) {
	writeInt(h, len(ids))
	for _, id := range ids {
		writeInt(h, int(id))
	}
}

func TestPinnedModulesTable(t *testing.T) {
	rows := []struct {
		design  string
		modules int
		digest  string
	}{
		{"mips16", 99, "37b2ef4413c24e03db56bc2276b2550e1e85f4bac5bfd4221300c3aa02084905"},
		{"riscfpu", 212, "c1559a5c838c53a5b3a7dca79378a50334131c76b67846a0d70266a8597f1c30"},
		{"router", 251, "78d64b0abcb2cc02a7b9aef49c9ca335c0517ca6cd82d4d6ee92bf30d1af21d5"},
		{"oc8051", 117, "43199274b80e4cb5bcb42f3604f4f034c715fb47e49695f61e9fb0f895c66add"},
		{"aemb", 60, "1893bb07d1ec80dd7c59c4adbb0ee552d32338d84351e3ace3689bb19dbd42d4"},
		{"msp430", 28, "62ee7810a0be844fb40392476c60366c13dbe9c680f27b807f6bc59628c6fe97"},
		{"usb", 62, "cc866bcb505409b1645446013d1d6f5e744c57af0103cade290fe248ac6c3c9d"},
		{"evoter", 32, "401ebd4ff0fa8a2d44d4dccf332b093d4b26f26a809de5f2a3b9db50a4ea236f"},
		{"oc8051-trojan", 121, "00ced62fd5e730936193d66a143555df890f58c202773dac9662d00512eb27d3"},
		{"evoter-trojan", 56, "82a0bef794a2461736f3ab1cb712f0cb7bd00a668baf1fbc6f8830214423eb5e"},
		{"mips16-lut", 99, "805caf8cb3a89e3e2f753e4bbf750e78fa6d22452787a80a24e42f017c04f911"},
		{"riscfpu-lut", 212, "cd5ef5723ed607ce518f4f350970bb948443c29b6db7b859f8bae07309ea9756"},
		{"router-lut", 251, "18e5d1e6035d9e586912ec6fc5a1f98f7f88a9a50d582087f3f826fc5845bb9f"},
		{"oc8051-lut", 117, "a06caff64d7610cd89a2ec8124bf5adc174ddf66cbf722455e068b5542f948e2"},
		{"aemb-lut", 59, "2badb848dca77e3b63c92ba3d307d566209245a3502b0ae9f5b23dc9f8fb6f78"},
		{"msp430-lut", 28, "f4488bd3a6cbb738796f60629d838845f5a8a5d8d70431f4d013f07b6086f995"},
		{"usb-lut", 62, "45740fc6717c590e46da0bd8133c3386944e0d5a6945080060247eaf714fd9fd"},
		{"evoter-lut", 34, "a8e4f6a0843871744e598f15bf962e683e54988d3ccab7b0dceef3ee0968c317"},
		{"bigsoc", 740, "8d4183d611fee54e3382d09e3d4fd87fb72b8b4434cf9c8779ee6f024c6cc0eb"},
	}
	for _, row := range rows {
		row := row
		t.Run(row.design, func(t *testing.T) {
			var nl *netlist.Netlist
			if row.design == "bigsoc" {
				if testing.Short() {
					t.Skip("BigSoC; skipped in -short mode")
				}
				nl = simplify.Run(gen.BigSoC()).Netlist
			} else {
				var err error
				if nl, _, err = gen.LabeledArticle(row.design); err != nil {
					t.Fatal(err)
				}
			}
			opt := core.Options{Workers: 1}
			opt.Overlap.Sliceable = true
			rep := core.Analyze(nl, opt)
			got := modulesDigest(rep.All)
			if len(rep.All) != row.modules || got != row.digest {
				t.Errorf("%s: got %d modules, digest %s; want %d, %s",
					row.design, len(rep.All), got, row.modules, row.digest)
			}
		})
	}
}
