package overlap_test

import (
	"testing"

	"netlistre/internal/overlap"
)

// BenchmarkResolveMips16 resolves mips16's merged module set with the
// sliceable formulation: a real overlap instance with a 527-variable
// component.
func BenchmarkResolveMips16(b *testing.B) { benchResolve(b, "mips16") }

// BenchmarkResolveRiscfpu resolves riscfpu's module set, the largest
// search of the labeled articles: its sliceable component falls apart
// into independent parts a few nodes below the root.
func BenchmarkResolveRiscfpu(b *testing.B) { benchResolve(b, "riscfpu") }

// BenchmarkResolveRouter resolves router's module set, whose dense
// RAM-against-decomposition component is proven optimal only by solving
// its independent parts separately.
func BenchmarkResolveRouter(b *testing.B) { benchResolve(b, "router") }

// benchResolve resolves an article's merged module set with the sliceable
// formulation, reporting the branch-and-bound nodes of every solve,
// warm starts included, per resolution (nodes/op) and the mean time of one
// node over them all (ns/node).
func benchResolve(b *testing.B, article string) {
	mods := articleModules(b, article)
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
}
