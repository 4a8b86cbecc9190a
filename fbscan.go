package netlistre

import (
	"netlistre/internal/fbscan"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
)

// FindFramebufferRead is a design-specific inference pass detecting OR-AND
// framebuffer read planes with one-hot row selects (Section V-C.3 of the
// paper). Plug it into Options.ExtraPasses:
//
//	opt := netlistre.Options{ExtraPasses: []func(*netlistre.Netlist) []*netlistre.Module{
//		netlistre.FindFramebufferRead,
//	}}
func FindFramebufferRead(nl *netlist.Netlist) []*module.Module {
	return fbscan.Find(nl)
}
