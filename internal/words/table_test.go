package words_test

// Pinned propagation table: PropagateAll over every labeled article's
// module-port seeds must reproduce the recorded word and propagation
// counts and a digest of every word key, control assignment and polarity.
// Any change to the propagation check's semantics — enumeration order,
// D-calculus precision, cone boundaries — moves at least one row.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/netlist"
	"netlistre/internal/words"
)

// propagationDigest hashes the discovered words in order, then every
// propagation's source, target, sorted control assignment, negation vector
// and direction.
func propagationDigest(all []words.Word, props []words.Propagation) string {
	h := sha256.New()
	var buf [8]byte
	putKey := func(w words.Word) {
		k := w.Key()
		binary.LittleEndian.PutUint64(buf[:], uint64(len(k)))
		h.Write(buf[:])
		h.Write([]byte(k))
	}
	for _, w := range all {
		putKey(w)
	}
	for _, p := range props {
		putKey(p.Source)
		putKey(p.Target)
		ctrl := make([]netlist.ID, 0, len(p.Controls))
		for c := range p.Controls {
			ctrl = append(ctrl, c)
		}
		sort.Slice(ctrl, func(i, j int) bool { return ctrl[i] < ctrl[j] })
		binary.LittleEndian.PutUint64(buf[:], uint64(len(ctrl)))
		h.Write(buf[:])
		for _, c := range ctrl {
			v := uint64(c) << 1
			if p.Controls[c] {
				v |= 1
			}
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		for _, n := range p.Negated {
			if n {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		if p.Backward {
			h.Write([]byte{'b'})
		} else {
			h.Write([]byte{'f'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestPinnedPropagationTable(t *testing.T) {
	rows := []struct {
		article      string
		words, props int
		digest       string
		large        bool
	}{
		{"mips16", 204, 289, "feffa1b4f71089785d6d4be20ffc721242185f2a1f17a88b5973a00cb5ce775b", false},
		{"riscfpu", 494, 693, "e40646587f648367a0366fcc2ed6148b7b8d3d7f9287b9c5e5724481d4a2f0b8", true},
		{"router", 480, 684, "212c1bb4b20b46ade4922982610457f16f4873c4d8bd0040cca527d42d116d2c", true},
		{"oc8051", 216, 312, "b1724b839a47c6644f12511d2650e5a6c88eb4559774bcf42c8b8c3dcc02e644", false},
		{"aemb", 116, 161, "1d338784cc42a3c10d1b63fe97b37a21c2f2440375cdec3767f3136d7def1dc8", false},
		{"msp430", 42, 54, "6486836cb3e8e81397887942d7ee26b5d5988eec3cebfdadd63e3ef53113543a", false},
		{"usb", 84, 106, "5806295caca0bea3cce2a60002103153a50422f3b4a1296b11eed442fa4d3a84", false},
		{"evoter", 48, 65, "82a31417b03cb7903d1a88d60f7aee42d90283396f1aa571539a8e732d17f72d", false},
		{"oc8051-trojan", 216, 312, "0ef749589bb1071351cce046f682fda6668bfbe2b6a8791f8e9741ddcd347646", false},
		{"evoter-trojan", 99, 139, "37b68eb50afa44330b9f5fa87d50f1fba6b87e2d1f32421e6155469be2a5a9df", false},
		{"mips16-lut", 203, 281, "fbebd63bab6eeedc0cfcc746cbd5654b6b21b7c48018b1a3e6e960d98baf2833", false},
		{"riscfpu-lut", 491, 683, "74c6ad0bfe3ea46f1ba76cd5c05072b63012055cbc21da12c80c852485f3fdec", true},
		{"router-lut", 480, 680, "401d51fcdd1f9cf32b51b6ca99541a8c8d0eeeb67a8db677a83b3ef4586f3fe4", true},
		{"oc8051-lut", 216, 310, "d9236d4e73db521e4c9c7755749e90df60005d7f72691fc50714caa4464938e8", false},
		{"aemb-lut", 115, 158, "d6465c8ea82425867dcaaf3dc748fbb6e7a780a2208f1ecc657bc5544648eaec", false},
		{"msp430-lut", 46, 61, "1ee706ff1d0b78a4628e0d7ec29d18a31d891e557e089b56e390e077c41a9ee2", false},
		{"usb-lut", 84, 105, "31cca4ae88e144f838d794a75aa985a9b9e15ef70dc6b2549191076309a025c9", false},
		{"evoter-lut", 46, 57, "bc010fcc7edff86bb6dfe31b0f9a95256d7d214cefceaf5975662ef5cd0a2d90", false},
	}
	for _, row := range rows {
		row := row
		t.Run(row.article, func(t *testing.T) {
			if row.large && testing.Short() {
				t.Skip("large article; skipped in -short mode")
			}
			nl, _, err := gen.LabeledArticle(row.article)
			if err != nil {
				t.Fatal(err)
			}
			seeds := core.Analyze(nl, core.Options{Workers: 1, SkipWordProp: true}).Words
			all, props := words.PropagateAll(nl, seeds, 3, words.Options{})
			got := propagationDigest(all, props)
			if len(all) != row.words || len(props) != row.props || got != row.digest {
				t.Errorf("%s: got %d words / %d props, digest %s; want %d / %d, %s",
					row.article, len(all), len(props), got, row.words, row.props, row.digest)
			}
		})
	}
}
