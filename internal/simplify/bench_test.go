package simplify

import (
	"testing"

	"netlistre/internal/gen"
)

var benchSink Result

// BenchmarkRun measures structural simplification of the raw BigSoC with
// the electrical noise of seed 1, the input of the pipeline benchmark's
// bigsoc workload at that seed.
func BenchmarkRun(b *testing.B) {
	nl := gen.SoC("bigsoc", gen.BigSoCCoreNames(), 1, 0.22)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Run(nl)
	}
}
