package netlist

// Shared identifier legalization for everything that prints Verilog: the
// structural netlist writer (WriteVerilog) and the word-level RTL emitter
// (internal/rtl). Netlist names come from arbitrary upstream tools, so a
// net can collide with a Verilog keyword ("module", "wire") or start with
// a digit ("1abc"); emitting such names verbatim produces unparseable
// output.

import "strings"

// verilogReserved lists the IEEE 1364 keywords (plus the common
// SystemVerilog ones a downstream tool is likely to reject). A legalized
// identifier never equals any of these.
var verilogReserved = map[string]bool{
	"always": true, "and": true, "assign": true, "automatic": true,
	"begin": true, "buf": true, "bufif0": true, "bufif1": true,
	"case": true, "casex": true, "casez": true, "cell": true,
	"cmos": true, "config": true, "deassign": true, "default": true,
	"defparam": true, "design": true, "disable": true, "edge": true,
	"else": true, "end": true, "endcase": true, "endconfig": true,
	"endfunction": true, "endgenerate": true, "endmodule": true,
	"endprimitive": true, "endspecify": true, "endtable": true,
	"endtask": true, "event": true, "for": true, "force": true,
	"forever": true, "fork": true, "function": true, "generate": true,
	"genvar": true, "highz0": true, "highz1": true, "if": true,
	"ifnone": true, "incdir": true, "include": true, "initial": true,
	"inout": true, "input": true, "instance": true, "integer": true,
	"join": true, "large": true, "liblist": true, "library": true,
	"localparam": true, "logic": true, "macromodule": true, "medium": true,
	"module": true, "nand": true, "negedge": true, "nmos": true,
	"nor": true, "noshowcancelled": true, "not": true, "notif0": true,
	"notif1": true, "or": true, "output": true, "parameter": true,
	"pmos": true, "posedge": true, "primitive": true, "pull0": true,
	"pull1": true, "pulldown": true, "pullup": true,
	"pulsestyle_ondetect": true, "pulsestyle_onevent": true,
	"rcmos": true, "real": true, "realtime": true, "reg": true,
	"release": true, "repeat": true, "rnmos": true, "rpmos": true,
	"rtran": true, "rtranif0": true, "rtranif1": true, "scalared": true,
	"showcancelled": true, "signed": true, "small": true, "specify": true,
	"specparam": true, "strong0": true, "strong1": true, "supply0": true,
	"supply1": true, "table": true, "task": true, "time": true,
	"tran": true, "tranif0": true, "tranif1": true, "tri": true,
	"tri0": true, "tri1": true, "triand": true, "trior": true,
	"trireg": true, "unsigned": true, "use": true, "vectored": true,
	"wait": true, "wand": true, "weak0": true, "weak1": true,
	"while": true, "wire": true, "wor": true, "xnor": true, "xor": true,
}

// Legalize maps an arbitrary net name to a legal Verilog simple
// identifier: characters outside [A-Za-z0-9_] become '_', a leading digit
// gets a '_' prefix, and reserved words get a '_' suffix. Well-behaved
// names (the common case) pass through unchanged, so existing emitted
// files are byte-stable. The mapping is deterministic but not injective:
// two pathological names can legalize to the same identifier, exactly as
// the previous sanitizer allowed; callers that need uniqueness layer a
// Namer on top.
func Legalize(s string) string {
	if isLegal(s) {
		return s
	}
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else if r >= '0' && r <= '9' { // leading digit: prefix, don't mangle
			b.WriteByte('_')
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	out := b.String()
	if verilogReserved[out] {
		return out + "_"
	}
	return out
}

// isLegal reports whether Legalize maps s to itself: s is a non-empty
// run of [A-Za-z0-9_] that does not start with a digit and is not a
// reserved word. It lets the common, already legal name through without
// a copy.
func isLegal(s string) bool {
	if s == "" || s[0] >= '0' && s[0] <= '9' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			return false
		}
	}
	return !verilogReserved[s]
}

// isSimpleIdent reports whether s is a legal (non-reserved) Verilog simple
// identifier: [A-Za-z_][A-Za-z0-9_$]*.
func isSimpleIdent(s string) bool {
	if s == "" || verilogReserved[s] {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'):
		case i > 0 && ((r >= '0' && r <= '9') || r == '$'):
		default:
			return false
		}
	}
	return true
}

// escapable reports whether s can be emitted as a Verilog backslash-escaped
// identifier: non-empty printable ASCII with no whitespace.
func escapable(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] <= ' ' || s[i] > '~' {
			return false
		}
	}
	return true
}

// VerilogName returns the Verilog identifier token for an arbitrary net
// name. Legal simple identifiers pass through unchanged; any other
// whitespace-free printable name (an FPGA tool's `\n$123`-style net, or a
// name colliding with a keyword) becomes a backslash-escaped identifier.
// The escaped form includes the terminating space the standard requires, so
// callers can concatenate punctuation directly after the token. Names that
// cannot be escaped (whitespace or non-printable bytes) fall back to
// Legalize, which is lossy but always printable.
func VerilogName(s string) string {
	if isSimpleIdent(s) {
		return s
	}
	if escapable(s) {
		return "\\" + s + " "
	}
	return Legalize(s)
}

// Namer hands out unique legalized identifiers. Reserve marks names that
// must not be produced (e.g. synthesized n<id> wires); Claim legalizes and
// uniquifies by appending '_' until the name is free. All decisions are
// deterministic in call order.
type Namer struct {
	used map[string]bool
}

// NewNamer returns an empty namer with room for about size names.
func NewNamer(size int) *Namer { return &Namer{used: make(map[string]bool, size)} }

// Reserve marks name as taken verbatim.
func (nm *Namer) Reserve(name string) { nm.used[name] = true }

// Claim legalizes name, uniquifies it against every earlier Reserve/Claim,
// records it, and returns it.
func (nm *Namer) Claim(name string) string {
	s := Legalize(name)
	for nm.used[s] {
		s += "_"
	}
	nm.used[s] = true
	return s
}
