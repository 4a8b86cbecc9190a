package server

// Interactive exploration sessions. A session binds a server-side handle to
// an analyzed netlist (created from a done job, so the report cache and the
// process-wide stage store have already paid for the analysis) and exposes
// navigation endpoints over it: recovered blocks, words and ports, module
// expansion, bounded fan-in/fan-out cone queries, and single-analysis
// re-runs whose unchanged upstream stages replay from the stage store with
// "cached" provenance. A session can hold additional named netlist
// revisions (uploaded without analysis) for differential comparison — see
// diff.go for the golden/suspect trojan diff endpoint.
//
// Sessions live in a TTL + LRU store: a session idle past SessionTTL
// expires, and the store never holds more than MaxSessions (least recently
// used evicted first). Both are lazy — enforced on every store access — so
// there is no background goroutine to leak.

import (
	"container/list"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"netlistre"
)

// Session eviction reasons, as counted on /metrics.
const (
	sessionExpired = "ttl"
	sessionLRU     = "lru"
	sessionDeleted = "deleted"
)

// revisionMain is the name of the revision a session is created with.
const revisionMain = "main"

// Cone query guardrails: defaults applied when the client omits a bound,
// and hard caps a request cannot exceed.
const (
	coneDefaultDepth = 4
	coneDefaultLimit = 200
	coneMaxDepth     = 64
	coneMaxLimit     = 10000
)

// Session is one interactive exploration handle. Mutable state (revisions,
// lastUsed) is guarded by mu; the store holds its own lock separately and
// never calls into a locked session.
type Session struct {
	ID      string
	Created time.Time

	mu        sync.Mutex
	lastUsed  time.Time
	revisions map[string]*sessionRevision
	revOrder  []string // insertion order, for stable listings
}

// sessionRevision is one named netlist inside a session. rep is non-nil
// once the revision has been analyzed (always, for the creation revision).
// A revision is immutable once published in Session.revisions: a re-run
// publishes a new one under the same name, so handlers read a revision
// they looked up without holding the session lock.
type sessionRevision struct {
	name        string
	nl          *netlistre.Netlist
	fingerprint string
	ro          RequestOptions
	rep         *netlistre.Report
}

func (s *Session) revision(name string) *sessionRevision {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.revisions[name]
}

func (s *Session) addRevision(rev *sessionRevision) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.revisions[rev.name]; ok {
		return fmt.Errorf("revision %q already exists", rev.name)
	}
	s.revisions[rev.name] = rev
	s.revOrder = append(s.revOrder, rev.name)
	return nil
}

// sessionStore is the TTL + LRU session table.
type sessionStore struct {
	mu    sync.Mutex
	ttl   time.Duration
	max   int
	byID  map[string]*Session
	order *list.List // front = least recently used; values are *Session
	elem  map[string]*list.Element

	metrics *Metrics
	now     func() time.Time // injectable for expiry tests
}

func newSessionStore(ttl time.Duration, max int, m *Metrics) *sessionStore {
	return &sessionStore{
		ttl:     ttl,
		max:     max,
		byID:    map[string]*Session{},
		order:   list.New(),
		elem:    map[string]*list.Element{},
		metrics: m,
		now:     time.Now,
	}
}

func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("sess-%x", time.Now().UnixNano())
	}
	return "sess-" + hex.EncodeToString(b[:])
}

// sweepLocked evicts expired sessions and enforces the LRU cap. Caller
// holds st.mu.
func (st *sessionStore) sweepLocked() {
	now := st.now()
	for e := st.order.Front(); e != nil; {
		next := e.Next()
		s := e.Value.(*Session)
		s.mu.Lock()
		idle := now.Sub(s.lastUsed)
		s.mu.Unlock()
		if idle > st.ttl {
			st.removeLocked(s.ID, sessionExpired)
		}
		e = next
	}
	for st.max > 0 && len(st.byID) > st.max {
		front := st.order.Front()
		if front == nil {
			break
		}
		st.removeLocked(front.Value.(*Session).ID, sessionLRU)
	}
}

func (st *sessionStore) removeLocked(id, reason string) {
	if _, ok := st.byID[id]; !ok {
		return
	}
	delete(st.byID, id)
	if e := st.elem[id]; e != nil {
		st.order.Remove(e)
		delete(st.elem, id)
	}
	st.metrics.SessionClosed(reason)
}

// Create registers a new session holding the given initial revision.
func (st *sessionStore) Create(rev *sessionRevision) *Session {
	now := st.now()
	s := &Session{
		ID:        newSessionID(),
		Created:   now,
		lastUsed:  now,
		revisions: map[string]*sessionRevision{rev.name: rev},
		revOrder:  []string{rev.name},
	}
	st.mu.Lock()
	st.byID[s.ID] = s
	st.elem[s.ID] = st.order.PushBack(s)
	st.sweepLocked()
	st.mu.Unlock()
	st.metrics.SessionCreated()
	return s
}

// Get returns the session and touches its recency, or nil when the ID is
// unknown or the session has expired.
func (st *sessionStore) Get(id string) *Session {
	st.mu.Lock()
	st.sweepLocked()
	s := st.byID[id]
	if s != nil {
		st.order.MoveToBack(st.elem[id])
	}
	st.mu.Unlock()
	if s != nil {
		now := st.now()
		s.mu.Lock()
		s.lastUsed = now
		s.mu.Unlock()
	}
	return s
}

// Delete removes a session explicitly; reports whether it existed.
func (st *sessionStore) Delete(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.byID[id]; !ok {
		return false
	}
	st.removeLocked(id, sessionDeleted)
	return true
}

// Active returns the live session count (after sweeping).
func (st *sessionStore) Active() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked()
	return len(st.byID)
}

// ---- wire types ----

// CreateSessionRequest is the body of POST /v1/sessions.
type CreateSessionRequest struct {
	// JobID names a *done* job whose netlist and report the session binds
	// to. Queued, running, degraded, or failed jobs are rejected with 409.
	JobID string `json:"job_id"`
}

// RevisionStatus describes one named revision of a session.
type RevisionStatus struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	Design      string `json:"design"`
	Inputs      int    `json:"inputs"`
	Outputs     int    `json:"outputs"`
	Gates       int    `json:"gates"`
	Latches     int    `json:"latches"`
	Analyzed    bool   `json:"analyzed"`
}

// SessionStatus is the wire form of a session.
type SessionStatus struct {
	ID        string           `json:"id"`
	CreatedAt time.Time        `json:"created_at"`
	IdleTTLMS int64            `json:"idle_ttl_ms"`
	Revisions []RevisionStatus `json:"revisions"`
}

// NodeRef identifies one netlist node on the wire.
type NodeRef struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	Kind string `json:"kind"`
}

func nodeRef(nl *netlistre.Netlist, id netlistre.ID) NodeRef {
	return NodeRef{ID: int(id), Name: nl.NameOf(id), Kind: nl.Kind(id).String()}
}

// BlockSummary is one recovered module in a block listing.
type BlockSummary struct {
	Index    int    `json:"index"`
	Name     string `json:"name"`
	Type     string `json:"type"`
	Width    int    `json:"width"`
	Elements int    `json:"elements"`
}

// BlockDetail expands one recovered module to its member gates and ports.
type BlockDetail struct {
	BlockSummary
	Members []NodeRef            `json:"members"`
	Ports   map[string][]NodeRef `json:"ports,omitempty"`
}

// WordStatus is one recovered word.
type WordStatus struct {
	Origin string    `json:"origin"`
	Bits   []NodeRef `json:"bits"`
}

// PortStatus is one primary output with its driver.
type PortStatus struct {
	Name   string  `json:"name"`
	Driver NodeRef `json:"driver"`
}

// ConeNodeStatus is one node of a cone query response.
type ConeNodeStatus struct {
	NodeRef
	Depth int `json:"depth"`
}

// ConeResponse is the body of GET /v1/sessions/{id}/cone.
type ConeResponse struct {
	Revision       string           `json:"revision"`
	Root           NodeRef          `json:"root"`
	Direction      string           `json:"direction"`
	Nodes          []ConeNodeStatus `json:"nodes"`
	TruncatedDepth bool             `json:"truncated_depth"`
	TruncatedSize  bool             `json:"truncated_size"`
}

// RerunResponse is the body of POST /v1/sessions/{id}/rerun: the stage
// trace (with provenance, so the caller can see which stages replayed from
// the store) plus the full report.
type RerunResponse struct {
	Revision    string           `json:"revision"`
	Fingerprint string           `json:"fingerprint"`
	Degraded    bool             `json:"degraded,omitempty"`
	Trace       []StageRunStatus `json:"trace"`
	Report      json.RawMessage  `json:"report"`
}

// StageRunStatus is one stage of a re-run trace.
type StageRunStatus struct {
	Stage      string `json:"stage"`
	Provenance string `json:"provenance"`
	Status     string `json:"status"`
	DurationMS int64  `json:"duration_ms"`
	Modules    int    `json:"modules"`
}

// ---- handlers ----

func (s *Server) sessionStatus(sess *Session) SessionStatus {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	out := SessionStatus{
		ID:        sess.ID,
		CreatedAt: sess.Created,
		IdleTTLMS: s.cfg.SessionTTL.Milliseconds(),
	}
	for _, name := range sess.revOrder {
		rev := sess.revisions[name]
		stats := rev.nl.Stats()
		out.Revisions = append(out.Revisions, RevisionStatus{
			Name:        rev.name,
			Fingerprint: rev.fingerprint,
			Design:      rev.nl.Name,
			Inputs:      stats.Inputs,
			Outputs:     stats.Outputs,
			Gates:       stats.Gates,
			Latches:     stats.Latches,
			Analyzed:    rev.rep != nil,
		})
	}
	return out
}

// analyzeRevision runs (or replays) the analysis for a revision through
// the process-wide stage store, so a session created from a done job costs
// a stage replay, not a fresh portfolio run.
func (s *Server) analyzeRevision(r *http.Request, rev *sessionRevision) *netlistre.Report {
	opt := rev.ro.toOptions(rev.nl, s.cfg.DefaultTimeout)
	if s.stages != nil {
		opt.StageStore = s.stages
		opt.Fingerprint = rev.fingerprint
	}
	rep := netlistre.AnalyzeContext(r.Context(), rev.nl, opt)
	s.metrics.AnalysisDone("session", rep.Trace)
	return rep
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req CreateSessionRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.JobID == "" {
		writeError(w, http.StatusBadRequest, "job_id is required")
		return
	}
	j := s.queue.Get(req.JobID)
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", req.JobID)
		return
	}
	if st := j.State(); st != JobDone {
		writeError(w, http.StatusConflict,
			"job is %s; sessions can only bind to done jobs", st)
		return
	}
	rev := &sessionRevision{
		name:        revisionMain,
		nl:          j.nl,
		fingerprint: j.Fingerprint,
		ro:          j.ro,
	}
	rep := s.analyzeRevision(r, rev)
	if rep.Degraded {
		writeError(w, http.StatusServiceUnavailable,
			"re-deriving the job's report was degraded; retry")
		return
	}
	rev.rep = rep
	sess := s.sessions.Create(rev)
	w.Header().Set("Location", "/v1/sessions/"+sess.ID)
	writeJSON(w, http.StatusCreated, s.sessionStatus(sess))
}

// getSession resolves the {id} path value, writing the 404 itself.
func (s *Server) getSession(w http.ResponseWriter, r *http.Request) *Session {
	id := r.PathValue("id")
	sess := s.sessions.Get(id)
	if sess == nil {
		writeError(w, http.StatusNotFound,
			"no such session %q (sessions expire after %v idle)", id, s.cfg.SessionTTL)
	}
	return sess
}

// getRevision resolves the ?rev= query parameter (default "main") on a
// session, writing the 400 itself.
func (s *Server) getRevision(w http.ResponseWriter, r *http.Request, sess *Session) *sessionRevision {
	name := r.URL.Query().Get("rev")
	if name == "" {
		name = revisionMain
	}
	rev := sess.revision(name)
	if rev == nil {
		writeError(w, http.StatusBadRequest, "session has no revision %q", name)
	}
	return rev
}

// getAnalyzedRevision additionally requires a report, 409 otherwise (the
// revision was uploaded for diffing but never analyzed).
func (s *Server) getAnalyzedRevision(w http.ResponseWriter, r *http.Request, sess *Session) *sessionRevision {
	rev := s.getRevision(w, r, sess)
	if rev == nil {
		return nil
	}
	if rev.rep == nil {
		writeError(w, http.StatusConflict,
			"revision %q has not been analyzed; POST .../rerun?rev=%s first", rev.name, rev.name)
		return nil
	}
	return rev
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	if sess := s.getSession(w, r); sess != nil {
		writeJSON(w, http.StatusOK, s.sessionStatus(sess))
	}
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.Delete(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, "no such session %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSessionBlocks(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	rev := s.getAnalyzedRevision(w, r, sess)
	if rev == nil {
		return
	}
	blocks := []BlockSummary{}
	for i, m := range rev.rep.Resolved {
		blocks = append(blocks, BlockSummary{
			Index:    i,
			Name:     m.Name,
			Type:     m.Type.String(),
			Width:    m.Width,
			Elements: len(m.Elements),
		})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"revision": rev.name,
		"blocks":   blocks,
	})
}

func (s *Server) handleSessionBlock(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	rev := s.getAnalyzedRevision(w, r, sess)
	if rev == nil {
		return
	}
	idx, err := strconv.Atoi(r.PathValue("idx"))
	if err != nil || idx < 0 || idx >= len(rev.rep.Resolved) {
		writeError(w, http.StatusBadRequest,
			"block index %q out of range [0, %d)", r.PathValue("idx"), len(rev.rep.Resolved))
		return
	}
	m := rev.rep.Resolved[idx]
	detail := BlockDetail{
		BlockSummary: BlockSummary{
			Index: idx, Name: m.Name, Type: m.Type.String(),
			Width: m.Width, Elements: len(m.Elements),
		},
		Members: []NodeRef{},
	}
	for _, e := range m.Elements {
		detail.Members = append(detail.Members, nodeRef(rev.nl, e))
	}
	if len(m.Ports) > 0 {
		detail.Ports = map[string][]NodeRef{}
		for port, ids := range m.Ports {
			refs := make([]NodeRef, 0, len(ids))
			for _, id := range ids {
				refs = append(refs, nodeRef(rev.nl, id))
			}
			detail.Ports[port] = refs
		}
	}
	writeJSON(w, http.StatusOK, detail)
}

func (s *Server) handleSessionWords(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	rev := s.getAnalyzedRevision(w, r, sess)
	if rev == nil {
		return
	}
	words := []WordStatus{}
	for _, word := range rev.rep.Words {
		ws := WordStatus{Origin: word.Origin, Bits: []NodeRef{}}
		for _, b := range word.Bits {
			ws.Bits = append(ws.Bits, nodeRef(rev.nl, b))
		}
		words = append(words, ws)
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"revision": rev.name,
		"words":    words,
	})
}

func (s *Server) handleSessionPorts(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	rev := s.getRevision(w, r, sess)
	if rev == nil {
		return
	}
	inputs := []NodeRef{}
	for _, id := range rev.nl.Inputs() {
		inputs = append(inputs, nodeRef(rev.nl, id))
	}
	outputs := []PortStatus{}
	for _, p := range rev.nl.Outputs() {
		outputs = append(outputs, PortStatus{Name: p.Name, Driver: nodeRef(rev.nl, p.Driver)})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"revision": rev.name,
		"inputs":   inputs,
		"outputs":  outputs,
	})
}

// coneBound parses one bounded-int query parameter with a default and cap.
func coneBound(q string, def, max int) (int, error) {
	if q == "" {
		return def, nil
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("must be a positive integer, got %q", q)
	}
	if v > max {
		return 0, fmt.Errorf("must be <= %d, got %d", max, v)
	}
	return v, nil
}

func (s *Server) handleSessionCone(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	rev := s.getRevision(w, r, sess)
	if rev == nil {
		return
	}
	q := r.URL.Query()

	netParam := q.Get("net")
	if netParam == "" {
		writeError(w, http.StatusBadRequest, "net parameter is required (a node name or #id)")
		return
	}
	var root netlistre.ID
	if strings.HasPrefix(netParam, "#") {
		v, err := strconv.Atoi(netParam[1:])
		if err != nil || v < 0 || v >= rev.nl.Len() {
			writeError(w, http.StatusBadRequest, "net %q is not a valid node id", netParam)
			return
		}
		root = netlistre.ID(v)
	} else {
		root = rev.nl.FindByName(netParam)
		if root == netlistre.NilID {
			writeError(w, http.StatusBadRequest, "no node named %q", netParam)
			return
		}
	}

	dir := netlistre.ConeFanin
	switch q.Get("dir") {
	case "", "fanin":
	case "fanout":
		dir = netlistre.ConeFanout
	default:
		writeError(w, http.StatusBadRequest, "dir must be \"fanin\" or \"fanout\", got %q", q.Get("dir"))
		return
	}
	depth, err := coneBound(q.Get("depth"), coneDefaultDepth, coneMaxDepth)
	if err != nil {
		writeError(w, http.StatusBadRequest, "depth %v", err)
		return
	}
	limit, err := coneBound(q.Get("limit"), coneDefaultLimit, coneMaxLimit)
	if err != nil {
		writeError(w, http.StatusBadRequest, "limit %v", err)
		return
	}

	cone := rev.nl.BoundedCone(root, dir, depth, limit)
	resp := ConeResponse{
		Revision:       rev.name,
		Root:           nodeRef(rev.nl, root),
		Direction:      dir.String(),
		Nodes:          []ConeNodeStatus{},
		TruncatedDepth: cone.TruncatedDepth,
		TruncatedSize:  cone.TruncatedSize,
	}
	for _, cn := range cone.Nodes {
		resp.Nodes = append(resp.Nodes, ConeNodeStatus{
			NodeRef: nodeRef(rev.nl, cn.ID),
			Depth:   cn.Depth,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSessionRerun re-runs the analysis of one revision with new
// options, through the process-wide stage store: stages whose inputs are
// unchanged replay with "cached" provenance, and only the stages the new
// options actually affect execute.
func (s *Server) handleSessionRerun(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	rev := s.getRevision(w, r, sess)
	if rev == nil {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var ro RequestOptions
	if err := dec.Decode(&ro); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if err := ro.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	work := &sessionRevision{
		name:        rev.name,
		nl:          rev.nl,
		fingerprint: rev.fingerprint,
		ro:          ro,
	}
	rep := s.analyzeRevision(r, work)

	var buf strings.Builder
	var err error
	if ro.IncludeElements {
		err = netlistre.WriteJSONReportElements(&buf, rep)
	} else {
		err = netlistre.WriteJSONReport(&buf, rep)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "rendering report: %v", err)
		return
	}
	resp := RerunResponse{
		Revision:    rev.name,
		Fingerprint: rev.fingerprint,
		Degraded:    rep.Degraded,
		Report:      json.RawMessage(buf.String()),
	}
	for _, st := range rep.Trace {
		resp.Trace = append(resp.Trace, StageRunStatus{
			Stage:      st.Name,
			Provenance: st.Provenance.String(),
			Status:     st.Status.String(),
			DurationMS: st.Duration.Milliseconds(),
			Modules:    st.Modules,
		})
	}
	if !rep.Degraded {
		// Adopt the re-run as the revision's current report and options.
		work.rep = rep
		sess.mu.Lock()
		sess.revisions[rev.name] = work
		sess.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, resp)
}

// validRevisionName gates uploaded revision names: short, path-safe,
// lowercase identifiers.
func validRevisionName(name string) bool {
	if len(name) == 0 || len(name) > 32 {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
		case c == '-' || c == '_':
		default:
			return false
		}
	}
	return true
}

// handleAddRevision uploads a named netlist revision into a session for
// later diffing. The body is an AnalyzeRequest (one netlist source plus
// options); the netlist is parsed and validated but NOT analyzed — the
// structural/functional diff does not need a report, and an explicit
// rerun?rev=<name> analyzes it on demand.
func (s *Server) handleAddRevision(w http.ResponseWriter, r *http.Request) {
	sess := s.getSession(w, r)
	if sess == nil {
		return
	}
	name := r.PathValue("name")
	if !validRevisionName(name) {
		writeError(w, http.StatusBadRequest,
			"revision name must match [a-z0-9_-]{1,32}, got %q", name)
		return
	}
	pr, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	rev := &sessionRevision{
		name:        name,
		nl:          pr.nl,
		fingerprint: pr.fingerprint,
		ro:          pr.ro,
	}
	if err := sess.addRevision(rev); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, s.sessionStatus(sess))
}
