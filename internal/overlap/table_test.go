package overlap_test

// Pinned traversal table: the sliceable MaxCoverage resolution of every
// labeled article's merged module set must reproduce the recorded
// branch-and-bound node count, optimality flag, coverage and a digest of
// the selected modules. Node-limited components return whatever incumbent
// the search held when it stopped, so any change to the search tree — the
// branching order, the bound's value, the propagation order — moves at
// least one row.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/module"
	"netlistre/internal/overlap"
)

// articleModules returns the merged, unresolved module set of a labeled
// article: the input the overlap stage resolves.
func articleModules(tb testing.TB, article string) []*module.Module {
	tb.Helper()
	nl, _, err := gen.LabeledArticle(article)
	if err != nil {
		tb.Fatal(err)
	}
	opt := core.Options{Workers: 1}
	opt.Overlap.Sliceable = true
	return core.Analyze(nl, opt).All
}

// selectionDigest hashes the selected modules in order: each name and
// element list.
func selectionDigest(sel []*module.Module) string {
	h := sha256.New()
	var buf [8]byte
	for _, m := range sel {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(m.Name)))
		h.Write(buf[:])
		h.Write([]byte(m.Name))
		binary.LittleEndian.PutUint64(buf[:], uint64(len(m.Elements)))
		h.Write(buf[:])
		for _, g := range m.Elements {
			binary.LittleEndian.PutUint64(buf[:], uint64(g))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestPinnedTraversalTable(t *testing.T) {
	rows := []struct {
		article  string
		nodes    int64
		optimal  bool
		coverage int
		digest   string
		large    bool
	}{
		{"mips16", 225221, false, 1723, "8697d59618661b459875b4b554a47ad1fa5d3b0c1cd7ea329d117c950e707457", false},
		{"riscfpu", 250044, false, 6553, "064361927493b76063080e16f7ccd464ceb3e9669ddb8fc823b1949a3dc26bcf", true},
		{"router", 250026, false, 2270, "69705dab7067bc000a0000ee1e958844881e7c036881df950b2eddce0fb53b88", true},
		{"oc8051", 250100, false, 1372, "db642d33b32aa76de347fcb16af9eee0d676a6a3b50026107ec702570ea45d5f", false},
		{"aemb", 202663, false, 556, "45c489878defdf6a86c06353bf966d446814cdb0d4562ed22354bc5b8272ab17", false},
		{"msp430", 40, true, 559, "5a2e0c20739a2e87cb2479c386d02b0e5a483717ebacf931fc1bf9dbbad5aa32", false},
		{"usb", 1954, true, 435, "66e4250d0a2117225bc0e546289b43e184d7761bd9f4189f36f9740907acf428", false},
		{"evoter", 432, true, 281, "8edf9575f7cc4f09acce46e3e67dfcaf7848fe6f2c398a856af8ebd9231c792d", false},
		{"oc8051-trojan", 250100, false, 1397, "05692f8eb615ccac7fb6181014b9b84c62f1968f5c4b85638b0ab33af7622313", false},
		{"evoter-trojan", 1486, true, 385, "be734d7b19d1347584c2c140f4b3170585e60e38dcd0b426b6746bf466d8b104", false},
		{"mips16-lut", 208677, false, 1745, "6af66660e49683fa8e484ebb7aae11ebcd1731150a32d3cc0d54a4d0ddda5568", false},
		{"riscfpu-lut", 250044, false, 6556, "b636de87d6721819d65d5ab6ccab400263f3aae2f5701ef38c17bd5fbda58b74", true},
		{"router-lut", 250026, false, 2270, "8fdf9f8161b91c79c5f01361b4a582c695d3f0b9913b704cf65c8863014448de", true},
		{"oc8051-lut", 250090, false, 1407, "18fa4032e85891108ee583fdba2d1d1c5ddc03af7ab2f7908bcc830d7ccd94fb", false},
		{"aemb-lut", 202223, false, 559, "1cfcff22cf23a22f7564701f269cf00ad7b3fb0f52dcd4120c82db9ae9817dc8", false},
		{"msp430-lut", 38, true, 584, "db43882a5dd3427762a2bd756e717b763ef1bf87f187a01ebf8a1437f6ac9651", false},
		{"usb-lut", 1354, true, 435, "66e4250d0a2117225bc0e546289b43e184d7761bd9f4189f36f9740907acf428", false},
		{"evoter-lut", 524, true, 293, "fde22ebeb0e0f6ea64990cabdac46297f93b258a350905066153eb08a24259be", false},
	}
	for _, row := range rows {
		row := row
		t.Run(row.article, func(t *testing.T) {
			if row.large && testing.Short() {
				t.Skip("large article; skipped in -short mode")
			}
			mods := articleModules(t, row.article)
			res, err := overlap.Resolve(mods, overlap.Options{Sliceable: true})
			if err != nil {
				t.Fatal(err)
			}
			got := selectionDigest(res.Selected)
			if res.Nodes != row.nodes || res.Optimal != row.optimal || res.Coverage != row.coverage || got != row.digest {
				t.Errorf("%s: got nodes %d, optimal %v, coverage %d, digest %s; want %d, %v, %d, %s",
					row.article, res.Nodes, res.Optimal, res.Coverage, got,
					row.nodes, row.optimal, row.coverage, row.digest)
			}
		})
	}
}
