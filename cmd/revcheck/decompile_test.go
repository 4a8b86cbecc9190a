package main

import "testing"

func TestCompareTwins(t *testing.T) {
	rows := []decompileRow{
		{Design: "usb", AlwaysBlocks: 7, ResidualLatches: 19},
		{Design: "usb_lut", AlwaysBlocks: 7, ResidualLatches: 19},
		{Design: "evoter", AlwaysBlocks: 1, ResidualLatches: 48},
		{Design: "evoter_lut", AlwaysBlocks: 0, ResidualLatches: 52},
		{Design: "aemb_lut", AlwaysBlocks: 0, ResidualLatches: 84}, // twin not run
	}
	regs := compareTwins(rows)
	if len(regs) != 1 || regs[0] != "evoter_lut: always blocks 0, residual latches 52; gate-level evoter: 1, 48" {
		t.Fatalf("compareTwins = %q, want one evoter_lut failure", regs)
	}
}
