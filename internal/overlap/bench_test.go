package overlap_test

import (
	"testing"

	"netlistre/internal/overlap"
)

// BenchmarkResolveMips16 resolves mips16's merged module set with the
// sliceable formulation: a real overlap instance whose 527-variable
// component stops at the default node limit. ns/node is the
// mean cost of one branch-and-bound node over every solve, warm starts
// included.
func BenchmarkResolveMips16(b *testing.B) {
	mods := articleModules(b, "mips16")
	var nodes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := overlap.Resolve(mods, overlap.Options{Sliceable: true})
		if err != nil {
			b.Fatal(err)
		}
		nodes += res.Nodes
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
}
