package netlist_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"netlistre/internal/gen"
	"netlistre/internal/netlist"
)

// pinnedFingerprints are the first 16 hex digits of Fingerprint for every
// labeled article, the two trojan articles' LUT twins, and BigSoC. The
// service keys its report cache on the fingerprint, so a change that moves
// any of them invalidates every cached report.
var pinnedFingerprints = map[string]string{
	"mips16":            "1aa665adffabd233",
	"riscfpu":           "7aaa677fa940f9a9",
	"router":            "f0c7964ced290cd5",
	"oc8051":            "249dc6c9ff3cefb7",
	"aemb":              "2242741319a0155e",
	"msp430":            "7073ff6db3e766c2",
	"usb":               "b6f1e85057933e81",
	"evoter":            "b1a1ed662778d306",
	"oc8051-trojan":     "f3cd907f96d0dfaa",
	"evoter-trojan":     "a2dbe0a765d598e9",
	"mips16-lut":        "0536536b634c3b20",
	"riscfpu-lut":       "4603a46077371382",
	"router-lut":        "bd11c46583eb4dec",
	"oc8051-lut":        "06d7ccec90363fdd",
	"aemb-lut":          "7923a7d3ea0fff52",
	"msp430-lut":        "becd91753914710e",
	"usb-lut":           "9f1bd6a3755481b4",
	"evoter-lut":        "8cb42e0c0bdf31b2",
	"oc8051-trojan-lut": "38b08684330134fa",
	"evoter-trojan-lut": "ade8f6925ddd17c1",
	"bigsoc":            "b4f69418f2b2555c",
}

// TestPinnedFingerprints fingerprints every pinned design and compares.
func TestPinnedFingerprints(t *testing.T) {
	names := gen.LabeledArticleNames()
	if len(names) != 18 {
		t.Fatalf("%d labeled articles, want 18", len(names))
	}
	names = append(names, "oc8051-trojan-lut", "evoter-trojan-lut")
	designs := map[string]*netlist.Netlist{"bigsoc": gen.BigSoC()}
	for _, name := range names {
		nl, _, err := gen.LabeledArticle(name)
		if err != nil {
			t.Fatal(err)
		}
		designs[name] = nl
	}
	if len(designs) != len(pinnedFingerprints) {
		t.Errorf("%d designs, %d pinned fingerprints", len(designs), len(pinnedFingerprints))
	}
	for name, nl := range designs {
		if got, want := nl.Fingerprint()[:16], pinnedFingerprints[name]; got != want {
			t.Errorf("%s: fingerprint %s, pinned %s", name, got, want)
		}
	}
}

// pinnedDiffs are digests of the whole DiffNetlists result (node lists,
// boundary names, match and pass counts) for every trojan article pair.
var pinnedDiffs = map[string]string{
	"oc8051-trojan":     "7c01fcbd99015a9b",
	"evoter-trojan":     "f9dda35f7b9b9d76",
	"oc8051-trojan-lut": "c3b3377d8bfb45f7",
	"evoter-trojan-lut": "e395ee285ea276ce",
}

// TestPinnedDiffs diffs every trojan article pair and compares digests.
func TestPinnedDiffs(t *testing.T) {
	pairs := gen.TrojanArticlePairs()
	if len(pairs) != len(pinnedDiffs) {
		t.Errorf("%d pairs, %d pinned diffs", len(pairs), len(pinnedDiffs))
	}
	for _, pair := range pairs {
		g, _, err := gen.LabeledArticle(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := gen.LabeledArticle(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		d := netlist.DiffNetlists(g, s)
		sum := sha256.Sum256([]byte(fmt.Sprintf("%+v %v", *d, d.SuspectSet())))
		if got, want := hex.EncodeToString(sum[:8]), pinnedDiffs[pair[1]]; got != want {
			t.Errorf("%s: diff digest %s, pinned %s (passes %d, suspects %d)",
				pair[1], got, want, d.Passes, len(d.SuspectSet()))
		}
	}
}
