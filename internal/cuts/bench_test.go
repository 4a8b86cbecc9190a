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
// SoC, whose enumeration starts BigSoC's critical path, at one worker; the
// bigsoc-workers2 case enumerates the SoC's components on two workers, as
// BigSoC's two-worker analysis does.
func BenchmarkEnumerate(b *testing.B) {
	random := func() *netlist.Netlist { return randomComb(rand.New(rand.NewSource(3)), 12, 2000) }
	bigsoc := func() *netlist.Netlist { return simplify.Run(gen.BigSoC()).Netlist }
	for _, c := range []struct {
		name    string
		build   func() *netlist.Netlist
		workers int
	}{
		{"random", random, 1},
		{"bigsoc", bigsoc, 1},
		{"bigsoc-workers2", bigsoc, 2},
	} {
		b.Run(c.name, func(b *testing.B) {
			nl := c.build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enumerateSink = EnumerateByID(nl, Options{Workers: c.workers})
			}
		})
	}
}
