package overlap_test

import (
	"testing"

	"netlistre/internal/overlap"
)

// BenchmarkResolve resolves a design's merged module set with the
// sliceable formulation, reporting the branch-and-bound nodes of every
// solve, the warm start included, per resolution (nodes/op) and the mean
// time of one node over them all (ns/node). mips16 is a mid-sized
// instance; riscfpu's is the largest search of the labeled articles and
// router's a dense RAM-against-decomposition overlap, both proven optimal
// only by searching their independent parts separately; bigsoc is the
// simplified BigSoC (noise seed 1), on whose critical path overlap lies.
func BenchmarkResolve(b *testing.B) {
	for _, name := range []string{"mips16", "riscfpu", "router", "bigsoc"} {
		b.Run(name, func(b *testing.B) {
			mods, _ := articleModules(b, name)
			b.ReportAllocs()
			var nodes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := overlap.Resolve(mods, overlap.Options{Sliceable: true})
				if err != nil {
					b.Fatal(err)
				}
				nodes += res.Nodes
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
		})
	}
}
