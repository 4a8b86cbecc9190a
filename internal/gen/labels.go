package gen

// Ground-truth labels. The generators in this package assemble every
// article from known components, so the "answer key" the paper's authors
// had (which RTL module each gate belongs to) is available for free: while
// a labeled builder runs, each component constructor records the class,
// width, member nodes and port words of the structure it just built. The
// oracle package scores an analysis report against these labels.
//
// Recording is span-based: a constructor brackets its work with
// beginComponent/end, and every node the netlist gained in between is a
// member. Nested constructor calls (the decoder and mux tree inside
// RegisterFile, the ripple adder inside AddSub or PopCount) are suppressed
// so each node is claimed by exactly one top-level component — matching
// how the paper counts a register file as one module, not one RAM plus one
// decoder plus one mux tree. Trojan builders additionally bracket their
// inserted logic with beginTrojan/end; components emitted inside are
// flagged and every trojan-span node lands in Labels.Trojan.
//
// Recorders attach to a *Netlist via a package registry, so the component
// constructors keep their exact signatures and node-creation order: a
// labeled build is byte-identical to an unlabeled one.

import (
	"fmt"
	"sort"
	"sync"

	"netlistre/internal/netlist"
)

// Class identifies a ground-truth component class. The values mirror the
// module types the portfolio reports (module.Type.String()).
type Class string

const (
	ClassAdder         Class = "adder"
	ClassSubtractor    Class = "subtractor"
	ClassMux           Class = "mux"
	ClassDecoder       Class = "decoder"
	ClassParityTree    Class = "parity-tree"
	ClassPopCount      Class = "popcount"
	ClassCounter       Class = "counter"
	ClassShiftRegister Class = "shift-register"
	ClassRAM           Class = "ram"
	ClassRegister      Class = "multibit-register"
)

// Component is one ground-truth structure: a component constructor call
// that completed at nesting depth zero while a recorder was attached.
type Component struct {
	Class Class
	// Width is the component's natural bit width (operand width for
	// arithmetic, data width for muxes/registers/RAMs, select width for
	// decoders).
	Width int
	// Members lists every gate and latch the constructor created, sorted.
	// Inputs and constants are never members.
	Members []netlist.ID
	// Words maps port names (sum, out, q, read, ...) to multi-bit signal
	// words, LSB first. Word bits may be inputs or nodes of other
	// components (an adder's operands, say); Members is the ownership set,
	// Words is the interface.
	Words map[string][]netlist.ID
	// Trojan marks components built inside a trojan span.
	Trojan bool
}

// Labels is the ground truth for one generated design.
type Labels struct {
	Design     string
	Components []Component
	// Trojan lists every gate and latch created inside a trojan span,
	// sorted — the paper's Section V-D "suspect set" ground truth.
	Trojan []netlist.ID
	// Noise lists the irregular control-noise gates and latches, sorted.
	// They belong to no component, but a module the portfolio carves out
	// of this region (a random XOR chain really is a parity function) is
	// a correct find, not a false positive — the oracle grounds against
	// this set too.
	Noise []netlist.ID
}

// Remap rewrites every node reference through f, which maps an original
// node to its images in a transformed netlist (one-to-many to support
// rewrites that split a gate, empty to drop nodes the transform removed or
// merged into inputs). Component geometry (class, width, trojan flags) is
// preserved; a component whose members all vanish is kept with empty
// Members so recall still counts it.
func (l *Labels) Remap(f func(netlist.ID) []netlist.ID) *Labels {
	out := &Labels{Design: l.Design}
	mapSet := func(ids []netlist.ID) []netlist.ID {
		var r []netlist.ID
		seen := make(map[netlist.ID]bool, len(ids))
		for _, id := range ids {
			for _, nid := range f(id) {
				if !seen[nid] {
					seen[nid] = true
					r = append(r, nid)
				}
			}
		}
		sort.Slice(r, func(i, j int) bool { return r[i] < r[j] })
		return r
	}
	for _, c := range l.Components {
		nc := Component{Class: c.Class, Width: c.Width, Trojan: c.Trojan,
			Members: mapSet(c.Members)}
		if len(c.Words) > 0 {
			nc.Words = make(map[string][]netlist.ID, len(c.Words))
			for name, w := range c.Words {
				nw := make([]netlist.ID, 0, len(w))
				for _, b := range w {
					img := f(b)
					if len(img) == 0 {
						nw = nil
						break
					}
					// A word bit maps to the image that carries its value;
					// for one-to-many rewrites that is the last (output)
					// node by convention.
					nw = append(nw, img[len(img)-1])
				}
				if nw != nil {
					nc.Words[name] = nw
				}
			}
		}
		out.Components = append(out.Components, nc)
	}
	out.Trojan = mapSet(l.Trojan)
	out.Noise = mapSet(l.Noise)
	return out
}

// recorder accumulates labels for one netlist while its builder runs.
type recorder struct {
	nl          *netlist.Netlist
	labels      *Labels
	depth       int
	trojanDepth int
}

var (
	recMu     sync.Mutex
	recorders = map[*netlist.Netlist]*recorder{}
)

// StartRecording attaches a label recorder to nl and returns the Labels
// the component constructors will fill in. Call StopRecording when the
// build is done.
func StartRecording(nl *netlist.Netlist) *Labels {
	r := &recorder{nl: nl, labels: &Labels{Design: nl.Name}}
	recMu.Lock()
	recorders[nl] = r
	recMu.Unlock()
	return r.labels
}

// StopRecording detaches the recorder from nl.
func StopRecording(nl *netlist.Netlist) {
	recMu.Lock()
	delete(recorders, nl)
	recMu.Unlock()
}

func recorderOf(nl *netlist.Netlist) *recorder {
	recMu.Lock()
	r := recorders[nl]
	recMu.Unlock()
	return r
}

// componentSpan brackets one constructor invocation.
type componentSpan struct {
	r     *recorder
	start int
	outer bool
}

// beginComponent opens a span over the nodes the calling constructor is
// about to create. It is a no-op (and free of any netlist mutation) when
// no recorder is attached.
func beginComponent(nl *netlist.Netlist) componentSpan {
	r := recorderOf(nl)
	if r == nil {
		return componentSpan{}
	}
	r.depth++
	return componentSpan{r: r, start: r.nl.Len(), outer: r.depth == 1}
}

// end closes the span. Only outermost spans emit a Component; nested ones
// are members of their parent.
func (s componentSpan) end(class Class, width int, words map[string]Word) {
	if s.r == nil {
		return
	}
	s.r.depth--
	if !s.outer {
		return
	}
	members := spanMembers(s.r.nl, s.start)
	if len(members) == 0 {
		return
	}
	c := Component{Class: class, Width: width, Members: members,
		Trojan: s.r.trojanDepth > 0}
	if len(words) > 0 {
		c.Words = make(map[string][]netlist.ID, len(words))
		for name, w := range words {
			c.Words[name] = append([]netlist.ID(nil), w...)
		}
	}
	s.r.labels.Components = append(s.r.labels.Components, c)
}

// unlabeledSpan suppresses component emission for the constructors called
// inside it, without emitting anything itself. Builders use it around
// incidental constructor calls that are not architectural components (a
// constant-increment inside an FSM, say).
type unlabeledSpan struct{ r *recorder }

func beginUnlabeled(nl *netlist.Netlist) unlabeledSpan {
	r := recorderOf(nl)
	if r != nil {
		r.depth++
	}
	return unlabeledSpan{r: r}
}

func (u unlabeledSpan) end() {
	if u.r != nil {
		u.r.depth--
	}
}

// noiseSpan brackets a control-noise block in a builder.
type noiseSpan struct {
	r     *recorder
	start int
}

func beginNoise(nl *netlist.Netlist) noiseSpan {
	r := recorderOf(nl)
	if r == nil {
		return noiseSpan{}
	}
	return noiseSpan{r: r, start: r.nl.Len()}
}

func (s noiseSpan) end() {
	if s.r == nil {
		return
	}
	s.r.labels.Noise = append(s.r.labels.Noise, spanMembers(s.r.nl, s.start)...)
	sort.Slice(s.r.labels.Noise, func(i, j int) bool {
		return s.r.labels.Noise[i] < s.r.labels.Noise[j]
	})
}

// trojanSpan brackets a trojan-insertion block in a builder.
type trojanSpan struct {
	r     *recorder
	start int
}

func beginTrojan(nl *netlist.Netlist) trojanSpan {
	r := recorderOf(nl)
	if r == nil {
		return trojanSpan{}
	}
	r.trojanDepth++
	return trojanSpan{r: r, start: r.nl.Len()}
}

func (t trojanSpan) end() {
	if t.r == nil {
		return
	}
	t.r.trojanDepth--
	t.r.labels.Trojan = append(t.r.labels.Trojan, spanMembers(t.r.nl, t.start)...)
	sort.Slice(t.r.labels.Trojan, func(i, j int) bool {
		return t.r.labels.Trojan[i] < t.r.labels.Trojan[j]
	})
}

// spanMembers lists the gate and latch nodes created at or after start.
func spanMembers(nl *netlist.Netlist, start int) []netlist.ID {
	var members []netlist.ID
	for i := start; i < nl.Len(); i++ {
		switch nl.Node(netlist.ID(i)).Kind {
		case netlist.Input, netlist.Const0, netlist.Const1:
		default:
			members = append(members, netlist.ID(i))
		}
	}
	return members
}

// labeledArticles registers the builders that return ground truth: the
// eight Table 2 articles, the two trojan-injected variants, and the
// LUT-mapped FPGA workload (each base article through gen.LutMapped with
// labels remapped onto the LUT nodes).
var labeledArticles = map[string]func() (*netlist.Netlist, *Labels){
	"mips16":        LabeledMIPS16,
	"riscfpu":       LabeledRISCFPU,
	"router":        LabeledRouter,
	"oc8051":        func() (*netlist.Netlist, *Labels) { return buildOC8051(false) },
	"aemb":          LabeledAEMB,
	"msp430":        LabeledMSP430,
	"usb":           LabeledUSB,
	"evoter":        func() (*netlist.Netlist, *Labels) { return buildEVoter(false) },
	"oc8051-trojan": func() (*netlist.Netlist, *Labels) { return buildOC8051(true) },
	"evoter-trojan": func() (*netlist.Netlist, *Labels) { return buildEVoter(true) },
}

func init() {
	lutted := append(append([]string(nil), baseArticleNames...),
		"oc8051-trojan", "evoter-trojan")
	for _, name := range lutted {
		build := labeledArticles[name]
		labeledArticles[name+"-lut"] = func() (*netlist.Netlist, *Labels) {
			return LutMappedLabeled(build)
		}
	}
}

var baseArticleNames = []string{"mips16", "riscfpu", "router", "oc8051",
	"aemb", "msp430", "usb", "evoter"}

// LabeledArticleNames lists the articles LabeledArticle accepts, in Table 2
// order with the trojan variants and the LUT-mapped FPGA workload last.
func LabeledArticleNames() []string {
	names := append([]string(nil), baseArticleNames...)
	names = append(names, "oc8051-trojan", "evoter-trojan")
	for _, n := range baseArticleNames {
		names = append(names, n+"-lut")
	}
	return names
}

// TrojanArticlePairs lists the golden/suspect article-name pairs the
// differential trojan workflow is scored on: each labeled trojan article
// against its clean counterpart, in both gate-level and LUT-mapped form.
// The pairs are accepted by LabeledArticle but deliberately kept out of
// LabeledArticleNames: they are diff workload, not conformance-matrix
// articles.
func TrojanArticlePairs() [][2]string {
	return [][2]string{
		{"oc8051", "oc8051-trojan"},
		{"evoter", "evoter-trojan"},
		{"oc8051-lut", "oc8051-trojan-lut"},
		{"evoter-lut", "evoter-trojan-lut"},
	}
}

// LabeledArticle builds the named article together with its ground-truth
// labels. In addition to the Table 2 articles it accepts the
// "oc8051-trojan" and "evoter-trojan" variants (and their "-lut"
// mappings), whose labels carry the trojan suspect-set ground truth.
func LabeledArticle(name string) (*netlist.Netlist, *Labels, error) {
	f, ok := labeledArticles[name]
	if !ok {
		return nil, nil, fmt.Errorf("gen: unknown article %q", name)
	}
	nl, lab := f()
	return nl, lab, nil
}
