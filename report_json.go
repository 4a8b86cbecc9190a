package netlistre

// Machine-readable report export: downstream tooling (diffing runs,
// trojan-delta dashboards, CI gates on coverage) consumes the analysis as
// JSON rather than scraping the text report.

import (
	"encoding/json"
	"io"
	"sort"
)

// JSONReport is the serializable form of a Report.
type JSONReport struct {
	Design        string         `json:"design"`
	Inputs        int            `json:"inputs"`
	Outputs       int            `json:"outputs"`
	Gates         int            `json:"gates"`
	Latches       int            `json:"latches"`
	TotalElements int            `json:"total_elements"`
	Coverage      JSONCoverage   `json:"coverage"`
	RuntimeMS     float64        `json:"runtime_ms"`
	Trace         []JSONStage    `json:"trace,omitempty"`
	Overlap       JSONOverlap    `json:"overlap_resolution"`
	Modules       []JSONModule   `json:"modules"`
	CountsBefore  map[string]int `json:"counts_before"`
	CountsAfter   map[string]int `json:"counts_after"`
	// Degraded is set when the run timed out, was canceled, a stage
	// panicked, or the input failed validation; per-stage statuses are in
	// Trace. Both fields are omitted for complete runs so existing
	// consumers see byte-identical output.
	Degraded        bool   `json:"degraded,omitempty"`
	ValidationError string `json:"validation_error,omitempty"`
}

// JSONCoverage carries coverage counts and fractions.
type JSONCoverage struct {
	BeforeElements int     `json:"before_elements"`
	AfterElements  int     `json:"after_elements"`
	BeforeFraction float64 `json:"before_fraction"`
	AfterFraction  float64 `json:"after_fraction"`
}

// JSONOverlap reports resolution status.
type JSONOverlap struct {
	ModulesBefore int    `json:"modules_before"`
	ModulesAfter  int    `json:"modules_after"`
	Optimal       bool   `json:"optimal"`
	Error         string `json:"error,omitempty"`
}

// JSONStage is one per-stage timing entry of the pipeline trace. Status
// and Error appear only for stages that did not complete normally;
// Provenance appears only when the stage did not execute its body in this
// run ("cached": replayed from the stage store, "skipped": the run was
// already over), so cold complete runs are byte-identical to earlier
// releases.
type JSONStage struct {
	Name       string  `json:"name"`
	StartMS    float64 `json:"start_ms"`
	DurationMS float64 `json:"duration_ms"`
	Modules    int     `json:"modules"`
	Status     string  `json:"status,omitempty"`
	Provenance string  `json:"provenance,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// JSONModule is one resolved module. ElementIDs and SliceIDs are filled
// only when the report is rendered with element detail (see
// WriteJSONReportElements); the default rendering keeps them empty so
// existing reports stay byte-identical.
type JSONModule struct {
	Name     string            `json:"name"`
	Type     string            `json:"type"`
	Width    int               `json:"width"`
	Elements int               `json:"elements"`
	Ports    map[string][]int  `json:"ports,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	// ElementIDs lists every covered netlist node, sorted ascending.
	ElementIDs []int `json:"element_ids,omitempty"`
	// SliceIDs carries the per-bit slice decomposition for the sliceable
	// ILP formulation, when the module has one.
	SliceIDs [][]int `json:"slice_ids,omitempty"`
}

// ToJSONReport converts an analysis Report.
func ToJSONReport(rep *Report) JSONReport {
	return toJSONReport(rep, false)
}

// ToJSONReportElements converts a Report including per-module element and
// slice ID lists — the lossless form that maps every resolved module back
// onto netlist nodes.
func ToJSONReportElements(rep *Report) JSONReport {
	return toJSONReport(rep, true)
}

func toJSONReport(rep *Report, includeElements bool) JSONReport {
	stats := rep.Netlist.Stats()
	out := JSONReport{
		Design:        rep.Netlist.Name,
		Inputs:        stats.Inputs,
		Outputs:       stats.Outputs,
		Gates:         stats.Gates,
		Latches:       stats.Latches,
		TotalElements: rep.TotalElements,
		Coverage: JSONCoverage{
			BeforeElements: rep.CoverageBefore,
			AfterElements:  rep.CoverageAfter,
			BeforeFraction: rep.CoverageFractionBefore(),
			AfterFraction:  rep.CoverageFraction(),
		},
		RuntimeMS: float64(rep.Runtime.Microseconds()) / 1000,
		Overlap: JSONOverlap{
			ModulesBefore: len(rep.All),
			ModulesAfter:  len(rep.Resolved),
			Optimal:       rep.OverlapOptimal,
		},
		CountsBefore: map[string]int{},
		CountsAfter:  map[string]int{},
	}
	if rep.OverlapErr != nil {
		out.Overlap.Error = rep.OverlapErr.Error()
	}
	out.Degraded = rep.Degraded
	if rep.ValidationErr != nil {
		out.ValidationError = rep.ValidationErr.Error()
	}
	for _, st := range rep.Trace {
		js := JSONStage{
			Name:       st.Name,
			StartMS:    float64(st.Start.Microseconds()) / 1000,
			DurationMS: float64(st.Duration.Microseconds()) / 1000,
			Modules:    st.Modules,
		}
		if st.Status != StageOK {
			js.Status = st.Status.String()
			js.Error = firstLine(st.Err)
		}
		if st.Provenance != StageRan {
			js.Provenance = st.Provenance.String()
		}
		out.Trace = append(out.Trace, js)
	}
	for ty, n := range rep.CountsBefore {
		out.CountsBefore[ty.String()] = n
	}
	for ty, n := range rep.CountsAfter {
		out.CountsAfter[ty.String()] = n
	}
	for _, m := range largestFirst(rep.Resolved) {
		jm := JSONModule{
			Name:     m.Name,
			Type:     m.Type.String(),
			Width:    m.Width,
			Elements: m.Size(),
			Attrs:    m.Attr,
		}
		if includeElements {
			jm.ElementIDs = make([]int, len(m.Elements))
			for i, id := range m.Elements {
				jm.ElementIDs[i] = int(id)
			}
			if len(m.Slices) > 0 {
				jm.SliceIDs = make([][]int, len(m.Slices))
				for i, slice := range m.Slices {
					ints := make([]int, len(slice))
					for j, id := range slice {
						ints[j] = int(id)
					}
					jm.SliceIDs[i] = ints
				}
			}
		}
		if len(m.Ports) > 0 {
			jm.Ports = make(map[string][]int, len(m.Ports))
			var names []string
			for name := range m.Ports {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				ids := m.Ports[name]
				ints := make([]int, len(ids))
				for i, id := range ids {
					ints[i] = int(id)
				}
				jm.Ports[name] = ints
			}
		}
		out.Modules = append(out.Modules, jm)
	}
	return out
}

// WriteJSONReport writes the report as indented JSON.
func WriteJSONReport(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ToJSONReport(rep))
}

// WriteJSONReportElements writes the report as indented JSON including
// per-module element and slice ID lists (revand's include_elements
// option). Reports written without element detail are unchanged byte for
// byte.
func WriteJSONReportElements(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ToJSONReportElements(rep))
}

// ReadJSONReport decodes a report previously written by WriteJSONReport
// (or served by the revand analysis service). Unknown fields are
// rejected, so a report produced by a newer, incompatible wire format
// fails loudly instead of being silently truncated.
func ReadJSONReport(r io.Reader) (*JSONReport, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var rep JSONReport
	if err := dec.Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}
