package cuts

import (
	"math/rand"
	"testing"

	"netlistre/internal/gen"
	"netlistre/internal/netlist"
	"netlistre/internal/simplify"
)

var enumerateSink [][]Cut

// BenchmarkEnumerate measures 6-feasible cut enumeration (the paper's k=6
// workload) on a random 2k-gate circuit and on the simplified seven-core
// SoC, whose enumeration starts BigSoC's critical path.
func BenchmarkEnumerate(b *testing.B) {
	designs := map[string]func() *netlist.Netlist{
		"random": func() *netlist.Netlist { return randomComb(rand.New(rand.NewSource(3)), 12, 2000) },
		"bigsoc": func() *netlist.Netlist { return simplify.Run(gen.BigSoC()).Netlist },
	}
	for _, name := range []string{"random", "bigsoc"} {
		b.Run(name, func(b *testing.B) {
			nl := designs[name]()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enumerateSink = EnumerateByID(nl, Options{})
			}
		})
	}
}
