package netlist_test

import (
	"bytes"
	"strings"
	"testing"

	"netlistre/internal/gen"
	"netlistre/internal/netlist"
)

// readSink keeps the benchmarks' results live.
var readSink *netlist.Netlist

// riscfpuText returns riscfpu, the largest gate-level article, written by
// write.
func riscfpuText(b *testing.B, write func(*netlist.Netlist, *bytes.Buffer) error) string {
	var buf bytes.Buffer
	if err := write(gen.RISCFPU(), &buf); err != nil {
		b.Fatal(err)
	}
	return buf.String()
}

// BenchmarkReadVerilog reads riscfpu's structural Verilog (about 391 KB).
func BenchmarkReadVerilog(b *testing.B) {
	text := riscfpuText(b, func(n *netlist.Netlist, buf *bytes.Buffer) error { return n.WriteVerilog(buf) })
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nl, err := netlist.ReadVerilog(strings.NewReader(text))
		if err != nil {
			b.Fatal(err)
		}
		readSink = nl
	}
}

// BenchmarkReadBLIF reads riscfpu's BLIF.
func BenchmarkReadBLIF(b *testing.B) {
	text := riscfpuText(b, func(n *netlist.Netlist, buf *bytes.Buffer) error { return n.WriteBLIF(buf) })
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nl, err := netlist.ReadBLIF(strings.NewReader(text))
		if err != nil {
			b.Fatal(err)
		}
		readSink = nl
	}
}
