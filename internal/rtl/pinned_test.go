package rtl

// Pinned emission table: every labeled article analyzed, emitted and
// checked must reproduce the recorded SHA-256 of the emitted Verilog,
// every EmitStats field, and the self-check's proof: the proved signals,
// every named gate proved a cut, and the cuts and signals proved only
// after substituting cut variables by their expansions. Any change to what
// the planner admits, how nets are named and ordered, or where the
// checker's proof holds at the named nets moves at least one row.

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"netlistre/internal/core"
	"netlistre/internal/gen"
)

func TestPinnedEmitDigests(t *testing.T) {
	rows := []struct {
		article  string
		digest   string
		stats    EmitStats
		proved   int
		deepCuts int
		deep     int
	}{
		{"mips16", "fea8e3ff57a20ab1540a222c0b18a41c3dc3773a4b7e62f7cb82663810ace5c5", EmitStats{17, 10, 463, 8, 1418, 103}, 201, 0, 0},
		{"riscfpu", "e5ea2bcaeb633428a0ffb0253c7dac545c6c09d210f3a6015b4885d21d4e65e7", EmitStats{7, 45, 4103, 24, 3314, 314}, 756, 0, 0},
		{"router", "6a1a3cea326a3b2fe78d8e3ccb46b0bcc38c9f3bf810ff7c51c924c354515882", EmitStats{41, 40, 889, 16, 1747, 269}, 332, 0, 0},
		{"oc8051", "e26c890e607752721f329e05eff7238782f07550c74f58f81caa0475a515fcf2", EmitStats{25, 22, 962, 30, 1302, 100}, 232, 0, 0},
		{"aemb", "804349b5c16cc99dbba5f54fd6d27b0d6d8b9a2a7fb4afebbd9cf5295924fccf", EmitStats{14, 9, 268, 12, 547, 55}, 108, 0, 0},
		{"msp430", "f9924b127540cccbbd0d825f27dc909cdc77c3bcafab8058bbf9b17cd90f0adc", EmitStats{1, 7, 516, 18, 466, 18}, 148, 0, 0},
		{"usb", "39e27f80f677bd469ae614c4656fbe70cab0d5d67b7acf32ee7547e8cb13b239", EmitStats{9, 7, 425, 19, 375, 41}, 96, 0, 7},
		{"evoter", "c3d4dd9f9460434ed9ec84f14718c0075011e0d83c03abe0f0d99b60d97acadd", EmitStats{2, 1, 493, 48, 59, 44}, 72, 1, 0},
		{"oc8051-trojan", "cf1b14e76547991fda42115847ff6ea38487a3495ee9bec1ad34529ba555aa87", EmitStats{23, 22, 1072, 34, 1219, 111}, 236, 0, 0},
		{"evoter-trojan", "0dc983dbe1110eb5dac592d8d37d5df1b8c6e7ca524d3ea1a93635727a36ddc7", EmitStats{3, 2, 581, 52, 96, 90}, 80, 1, 0},
		{"mips16-lut", "b497882e4df4ad275cea2fa139f6839021b0d2734262729ac8cc91a7ef443c12", EmitStats{17, 10, 466, 8, 1440, 102}, 201, 0, 0},
		{"riscfpu-lut", "a3997d1b94541390731f1018b7adbd4ba2beb393673120e9da6d7f51fb6e065c", EmitStats{7, 45, 4103, 24, 3314, 314}, 756, 0, 0},
		{"router-lut", "73a331c7029786d806ac607371d70a970e0f642a0e07af7ff2d74ffab2393cce", EmitStats{42, 40, 878, 16, 1758, 268}, 332, 0, 0},
		{"oc8051-lut", "daaf45b9537f324d459413149c2450175058889cf2d95e9485ee80b37c76ea04", EmitStats{25, 22, 962, 30, 1337, 100}, 232, 0, 0},
		{"aemb-lut", "dec1734dc75935bf32098d75b73adf592dfc9d7810efd68ff13603d26551123a", EmitStats{14, 9, 268, 12, 550, 55}, 108, 0, 0},
		{"msp430-lut", "f75725778f72197e8952342366a091df4bd3f18347c650fa19333f39f1756876", EmitStats{1, 7, 516, 18, 491, 22}, 148, 0, 0},
		{"usb-lut", "b323feb82dec9edbb6cc145b1e45d3f6596b249d17e9c13b64eddd613d27230f", EmitStats{9, 7, 425, 19, 375, 41}, 96, 0, 7},
		{"evoter-lut", "e996c36bf9803d4f437c1645d962cd285e96015952739a3bcf172bf7f8d4a8e1", EmitStats{2, 1, 505, 48, 59, 40}, 72, 1, 0},
	}
	if len(rows) != len(gen.LabeledArticleNames()) {
		t.Fatalf("%d pinned rows for %d labeled articles", len(rows), len(gen.LabeledArticleNames()))
	}
	for _, row := range rows {
		row := row
		t.Run(row.article, func(t *testing.T) {
			nl, _, err := gen.LabeledArticle(row.article)
			if err != nil {
				t.Fatal(err)
			}
			er, err := Emit(nl, core.Analyze(nl, core.Options{Workers: 1}))
			if err != nil {
				t.Fatal(err)
			}
			eq, st, err := prove(nl, er, proofBDDLimit)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(er.Verilog)
			if got := hex.EncodeToString(sum[:]); got != row.digest {
				t.Errorf("emission digest %s, want %s", got, row.digest)
			}
			if er.Stats != row.stats {
				t.Errorf("stats %+v, want %+v", er.Stats, row.stats)
			}
			if !eq.Equivalent || eq.Method != "bdd" || eq.Proved != row.proved ||
				st.cuts != st.named || st.deepCuts != row.deepCuts || st.deepSignals != row.deep {
				t.Errorf("check %v, %d of %d named gates cut, %d of them and %d signals past the cut; want equivalent (%d proved), every named gate cut, %d and %d past the cut",
					eq, st.cuts, st.named, st.deepCuts, st.deepSignals, row.proved, row.deepCuts, row.deep)
			}
		})
	}
}
