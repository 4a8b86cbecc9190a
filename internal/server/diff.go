package server

// Differential mode: POST /v1/sessions/{id}/diff compares two revisions
// held by one session — canonically a trusted "golden" netlist against a
// "suspect" revision that may carry an inserted hardware trojan — with the
// multi-pass structural/functional matcher in internal/netlist. The
// response classifies every unmatched suspect node as added, every
// unmatched golden node as removed, and every matched-position pair whose
// function changed as retyped, and rolls the added+retyped suspect nodes
// into one suspect gate set an analyst (or revcheck -diff) can compare
// against a trojan label.

import (
	"encoding/json"
	"net/http"

	"netlistre"
)

// DiffRequest is the body of POST /v1/sessions/{id}/diff. Empty revision
// names default to "golden" and "suspect"; a session created from a job
// can diff its own "main" revision against an uploaded one by naming it.
type DiffRequest struct {
	Golden  string `json:"golden,omitempty"`
	Suspect string `json:"suspect,omitempty"`
}

// RetypedStatus is one retyped pair on the wire: the same design position
// with a changed function (e.g. an XOR rewired as XNOR).
type RetypedStatus struct {
	Golden  NodeRef `json:"golden"`
	Suspect NodeRef `json:"suspect"`
}

// DiffResponse is the body of a successful diff.
type DiffResponse struct {
	GoldenRevision  string `json:"golden_revision"`
	SuspectRevision string `json:"suspect_revision"`
	Identical       bool   `json:"identical"`
	Fingerprints    struct {
		Golden  string `json:"golden"`
		Suspect string `json:"suspect"`
	} `json:"fingerprints"`
	// Added lists suspect nodes with no golden counterpart; Removed lists
	// golden nodes with no suspect counterpart; Retyped lists matched
	// positions whose function changed.
	Added   []NodeRef       `json:"added"`
	Removed []NodeRef       `json:"removed"`
	Retyped []RetypedStatus `json:"retyped"`
	// Boundary changes are reported by name.
	InputsAdded    []string `json:"inputs_added,omitempty"`
	InputsRemoved  []string `json:"inputs_removed,omitempty"`
	OutputsAdded   []string `json:"outputs_added,omitempty"`
	OutputsRemoved []string `json:"outputs_removed,omitempty"`
	// SuspectGates is the union of added and retyped suspect nodes — the
	// set to hand to a trojan triage pass.
	SuspectGates []NodeRef `json:"suspect_gates"`
	Matched      int       `json:"matched"`
	Passes       int       `json:"passes"`
}

func (s *Server) handleSessionDiff(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req DiffRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Golden == "" {
		req.Golden = "golden"
	}
	if req.Suspect == "" {
		req.Suspect = "suspect"
	}
	golden := sess.revision(req.Golden)
	if golden == nil {
		writeError(w, http.StatusBadRequest, "session has no revision %q", req.Golden)
		return
	}
	suspect := sess.revision(req.Suspect)
	if suspect == nil {
		writeError(w, http.StatusBadRequest, "session has no revision %q", req.Suspect)
		return
	}

	d := netlistre.DiffNetlists(golden.nl, suspect.nl)
	s.metrics.SessionDiff()

	resp := DiffResponse{
		GoldenRevision:  golden.name,
		SuspectRevision: suspect.name,
		Identical:       d.Identical(),
		Added:           []NodeRef{},
		Removed:         []NodeRef{},
		Retyped:         []RetypedStatus{},
		InputsAdded:     d.InputsAdded,
		InputsRemoved:   d.InputsRemoved,
		OutputsAdded:    d.OutputsAdded,
		OutputsRemoved:  d.OutputsRemoved,
		SuspectGates:    []NodeRef{},
		Matched:         d.Matched,
		Passes:          d.Passes,
	}
	resp.Fingerprints.Golden = golden.fingerprint
	resp.Fingerprints.Suspect = suspect.fingerprint
	for _, id := range d.Added {
		resp.Added = append(resp.Added, nodeRef(suspect.nl, id))
	}
	for _, id := range d.Removed {
		resp.Removed = append(resp.Removed, nodeRef(golden.nl, id))
	}
	for _, p := range d.Retyped {
		resp.Retyped = append(resp.Retyped, RetypedStatus{
			Golden:  nodeRef(golden.nl, p.Golden),
			Suspect: nodeRef(suspect.nl, p.Suspect),
		})
	}
	for _, id := range d.SuspectSet() {
		resp.SuspectGates = append(resp.SuspectGates, nodeRef(suspect.nl, id))
	}
	writeJSON(w, http.StatusOK, resp)
}
