package seq

import (
	"slices"
	"strings"
	"testing"

	"netlistre/internal/bitsim"
	"netlistre/internal/gen"
	"netlistre/internal/graph"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
)

// TestCounterWitnessSoundness checks the simulation prefilter against the
// SAT-only reference on every labeled article: whenever the witness
// refutes a subchain in a direction, verifyCounter must reject it too.
// Every subchain bestVerifiedSubchain would visit is tried, in both
// directions. On riscfpu, whose dead LCG chains dominate the stage, the
// witness must refute every subchain, so no SAT call is left there. Under
// -short only the gate-level articles run: riscfpu-lut alone needs seconds
// of SAT.
func TestCounterWitnessSoundness(t *testing.T) {
	for _, name := range gen.LabeledArticleNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && strings.HasSuffix(name, "-lut") {
				t.Skip("LUT-mapped article; skipped in -short mode")
			}
			nl, _, err := gen.LabeledArticle(name)
			if err != nil {
				t.Fatal(err)
			}
			var subchains, refuted int
			var cone bitsim.Cone // recompiled per chain, as FindCounters does
			for _, chain := range graph.BuildLCG(nl).CounterChains(minCounter) {
				w := newCounterWitness(nl, chain, &cone)
				for n := len(chain); n >= minCounter; n-- {
					for start := 0; start+n <= len(chain); start++ {
						for _, down := range []bool{false, true} {
							subchains++
							if !w.refutes(start, n, down) {
								continue
							}
							refuted++
							if verifyCounter(nl, chain[start:start+n], down) {
								t.Errorf("witness refutes %v (down=%v), but SAT verifies it", chain[start:start+n], down)
							}
						}
					}
				}
			}
			t.Logf("%s: %d of %d subchain checks refuted by simulation", name, refuted, subchains)
			if strings.HasPrefix(name, "riscfpu") && refuted != subchains {
				t.Errorf("%s: witness refutes %d of %d subchain checks, want all", name, refuted, subchains)
			}
		})
	}
}

// TestCounterContaminatedHead prepends a mode latch to a true counter: m
// toggles with tog (m' = m ⊕ tog) and gates the counter's enable, so it
// feeds every counter bit and CounterChains returns [m, q0..q4]. The
// witness must refute the chains headed by m, and the SAT path must accept
// the true counter q0..q4, in one chain.
func TestCounterContaminatedHead(t *testing.T) {
	for _, down := range []bool{false, true} {
		nl := netlist.New("ctr")
		en := nl.AddInput("en")
		rst := nl.AddInput("rst")
		tog := nl.AddInput("tog")
		m := nl.AddLatch(nl.AddConst(false))
		nl.SetLatchD(m, nl.AddGate(netlist.Xor, m, tog))
		q := gen.Counter(nl, 5, nl.AddGate(netlist.And, en, m), rst, down)

		want := append([]netlist.ID{m}, q...)
		chains := graph.BuildLCG(nl).CounterChains(minCounter)
		if len(chains) != 1 || !slices.Equal(chains[0], want) {
			t.Fatalf("down=%v: CounterChains = %v, want [%v]", down, chains, want)
		}
		w := newCounterWitness(nl, chains[0], new(bitsim.Cone))
		if !w.refutes(0, len(want), down) {
			t.Errorf("down=%v: witness does not refute the chain headed by the mode latch", down)
		}
		if w.refutes(1, len(q), down) {
			t.Errorf("down=%v: witness refutes the true counter", down)
		}

		mods := FindCounters(nl, graph.BuildLCG(nl))
		if len(mods) != 1 || mods[0].Name != "counter[5]" {
			t.Fatalf("down=%v: counters = %v, want one counter[5]", down, mods)
		}
		if got := mods[0].Port("q"); !slices.Equal(got, q) {
			t.Errorf("down=%v: q = %v, want %v", down, got, q)
		}
	}
}

var benchCounters []*module.Module

// BenchmarkFindCounters runs the counter stage on riscfpu-lut, whose 266
// dead LCG chains make it the stage's most expensive article.
func BenchmarkFindCounters(b *testing.B) {
	nl, _, err := gen.LabeledArticle("riscfpu-lut")
	if err != nil {
		b.Fatal(err)
	}
	lcg := graph.BuildLCG(nl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCounters = FindCounters(nl, lcg)
	}
}
