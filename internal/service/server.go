package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"easig/internal/core"
	"easig/internal/experiment"
	"easig/internal/inject"
	"easig/internal/journal"
)

// DefaultLease is the shard lease duration when neither the server
// options nor the submit request override it: long enough that a
// healthy worker heartbeating at lease/3 never loses a shard to a
// scheduling hiccup, short enough that a crashed worker's shards are
// back in circulation quickly.
const DefaultLease = 30 * time.Second

// maxJournalBytes bounds one shard journal upload (a full-protocol
// 27 400-run campaign journals in the low tens of MB; one shard is a
// fraction of that).
const maxJournalBytes = 256 << 20

// Options configures a Server.
type Options struct {
	// Lease is the default shard lease duration (DefaultLease if zero);
	// a SubmitRequest may override it per campaign.
	Lease time.Duration
	// CasesPerShard is the default shard size (1 if zero).
	CasesPerShard int
	// StateDir, when non-empty, persists every campaign (submit
	// request, shard ledger, uploaded shard journals) so a restarted
	// service resumes its campaigns: leases recover from the ledger,
	// completed shards from their journals, and a campaign that was
	// fully uploaded but not yet merged re-merges deterministically.
	StateDir string
	// Now supplies the clock (time.Now if nil); tests pin it.
	Now func() time.Time
	// Logf, when non-nil, receives one line per notable event.
	Logf func(format string, args ...any)
}

// Server is the ficd campaign service: campaign registry, shard lease
// boards, journal validation and merge, and the SSE event hub.
type Server struct {
	opts Options

	mu        sync.Mutex
	seq       int
	campaigns map[string]*campaign
	order     []string
}

// campaign is one submitted campaign's full service-side state.
type campaign struct {
	mu sync.Mutex

	id         string
	req        SubmitRequest // as submitted (normalized)
	spec       experiment.Spec
	experiment string
	engine     inject.Mode // resolved concrete engine
	lease      time.Duration

	shards []experiment.Shard
	board  *experiment.ShardBoard
	total  int

	logs    map[int]*journal.Log // validated shard journals
	ledger  *journal.Writer      // persistent shard ledger (StateDir only)
	dir     string               // campaign state directory (StateDir only)
	state   string
	failure string
	results *experiment.Results

	subs map[chan []byte]struct{}
}

// New builds a Server, restoring persisted campaigns from StateDir.
func New(opts Options) (*Server, error) {
	if opts.Lease <= 0 {
		opts.Lease = DefaultLease
	}
	if opts.CasesPerShard <= 0 {
		opts.CasesPerShard = 1
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	s := &Server{opts: opts, campaigns: make(map[string]*campaign)}
	if opts.StateDir != "" {
		if err := s.restore(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Close releases the campaigns' ledger writers.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, c := range s.campaigns {
		c.mu.Lock()
		if c.ledger != nil {
			if err := c.ledger.Close(); err != nil && first == nil {
				first = err
			}
			c.ledger = nil
		}
		c.mu.Unlock()
	}
	return first
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/campaigns", s.handleList)
	mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("POST /api/v1/campaigns/{id}/claims", s.handleClaim)
	mux.HandleFunc("POST /api/v1/campaigns/{id}/shards/{shard}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /api/v1/campaigns/{id}/shards/{shard}/journal", s.handleJournal)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/events", s.handleEvents)
	return mux
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErr writes an ErrorResponse.
func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// normalize canonicalizes a submit request: kind, exhaustive flag,
// engine resolution, shard and lease defaults.
func (s *Server) normalize(req SubmitRequest) (SubmitRequest, string, inject.Mode, error) {
	req.Kind = strings.ToLower(req.Kind)
	if req.Kind == "exhaustive" {
		req.Spec.Exhaustive = true
	}
	exp, err := experiment.ExperimentName(req.Kind, req.Spec)
	if err != nil {
		return req, "", 0, err
	}
	if err := req.Spec.Policy.Validate(); err != nil {
		return req, "", 0, fmt.Errorf("spec.policy.start_ms: %w", err)
	}
	mode, err := inject.ParseMode(req.Engine)
	if err != nil {
		return req, "", 0, err
	}
	if mode == inject.ModeAuto && exp == experiment.ExperimentExhaustive {
		// Match fic: pruning + memoization is what makes the full fault
		// space affordable.
		mode = inject.ModeMemo
	}
	resolved, err := mode.Resolve(core.NoRecovery{})
	if err != nil {
		return req, "", 0, err
	}
	req.Engine = resolved.String()
	if req.CasesPerShard <= 0 {
		req.CasesPerShard = s.opts.CasesPerShard
	}
	if req.LeaseMs <= 0 {
		req.LeaseMs = s.opts.Lease.Milliseconds()
	}
	return req, exp, resolved, nil
}

// build constructs a campaign (no persistence, no registration) from a
// normalized request.
func (s *Server) build(id string, req SubmitRequest, exp string, mode inject.Mode) (*campaign, error) {
	shards, err := experiment.PlanShards(req.Spec, exp, req.CasesPerShard)
	if err != nil {
		return nil, err
	}
	c := &campaign{
		id:         id,
		req:        req,
		spec:       req.Spec,
		experiment: exp,
		engine:     mode,
		lease:      time.Duration(req.LeaseMs) * time.Millisecond,
		shards:     shards,
		logs:       make(map[int]*journal.Log),
		state:      StateRunning,
		subs:       make(map[chan []byte]struct{}),
	}
	for _, sh := range shards {
		c.total += sh.Runs
	}
	return c, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	req, exp, mode, err := s.normalize(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	s.seq++
	id := "c" + strconv.Itoa(s.seq)
	s.mu.Unlock()

	c, err := s.build(id, req, exp, mode)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.opts.StateDir != "" {
		if err := s.persistNew(c); err != nil {
			writeErr(w, http.StatusInternalServerError, "persisting campaign: %v", err)
			return
		}
	}
	c.board = experiment.NewShardBoard(id, exp, c.shards, c.lease, c.recordClaim)

	s.mu.Lock()
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.mu.Unlock()

	s.logf("campaign %s submitted: %s, %d shards, %d runs, %s engine",
		id, exp, len(c.shards), c.total, c.req.Engine)
	s.broadcast(c, Event{Type: "submitted", Campaign: id})
	writeJSON(w, http.StatusCreated, c.info())
}

// persistNew creates the campaign's state directory: meta.json (the
// normalized submit request) and the shard ledger.
func (s *Server) persistNew(c *campaign) error {
	c.dir = filepath.Join(s.opts.StateDir, c.id)
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	meta, err := json.MarshalIndent(c.req, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(c.dir, "meta.json"), meta, 0o644); err != nil {
		return err
	}
	led, err := journal.Create(filepath.Join(c.dir, "ledger.jsonl"))
	if err != nil {
		return err
	}
	c.ledger = led
	return nil
}

// recordClaim is the board's ledger sink.
func (c *campaign) recordClaim(cl journal.Claim) error {
	if c.ledger == nil {
		return nil
	}
	cl.Experiment = c.experiment
	if cl.Kind == journal.KindShardDone {
		return c.ledger.ShardDone(cl)
	}
	return c.ledger.Claim(cl)
}

// restore rebuilds campaigns from the state directory.
func (s *Server) restore() error {
	entries, err := os.ReadDir(s.opts.StateDir)
	if err != nil {
		if os.IsNotExist(err) {
			return os.MkdirAll(s.opts.StateDir, 0o755)
		}
		return err
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	// Restore in submission order (c1, c2, ...).
	sort.Slice(ids, func(i, j int) bool {
		ni, _ := strconv.Atoi(strings.TrimPrefix(ids[i], "c"))
		nj, _ := strconv.Atoi(strings.TrimPrefix(ids[j], "c"))
		return ni < nj
	})
	for _, id := range ids {
		if err := s.restoreCampaign(id); err != nil {
			return fmt.Errorf("service: restoring campaign %s: %w", id, err)
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "c")); err == nil && n > s.seq {
			s.seq = n
		}
	}
	return nil
}

func (s *Server) restoreCampaign(id string) error {
	dir := filepath.Join(s.opts.StateDir, id)
	meta, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return err
	}
	var req SubmitRequest
	if err := json.Unmarshal(meta, &req); err != nil {
		return err
	}
	req, exp, mode, err := s.normalize(req)
	if err != nil {
		return err
	}
	c, err := s.build(id, req, exp, mode)
	if err != nil {
		return err
	}
	c.dir = dir

	// Replay the shard ledger into the lease board. A lease that was
	// live at the crash is honored until it expires; its worker's
	// heartbeats keep it alive across the restart.
	ledPath := filepath.Join(dir, "ledger.jsonl")
	var claims []journal.Claim
	if led, err := journal.Load(ledPath); err == nil {
		claims = led.Claims
	} else if !os.IsNotExist(err) {
		return err
	}
	c.board = experiment.RestoreShardBoard(id, exp, c.shards, c.lease, claims, c.recordClaim)

	// Reload the uploaded shard journals of completed shards.
	for _, st := range c.board.Statuses() {
		if st.State != experiment.ShardDone {
			continue
		}
		log, err := journal.Load(filepath.Join(dir, shardFile(st.Index)))
		if err != nil {
			return fmt.Errorf("shard %d journal: %w", st.Index, err)
		}
		if err := experiment.ValidateShardJournal(c.spec, exp, st.Shard, c.req.Engine, log); err != nil {
			return err
		}
		c.logs[st.Index] = log
	}

	led, err := journal.Open(ledPath)
	if os.IsNotExist(err) {
		led, err = journal.Create(ledPath)
	}
	if err != nil {
		return err
	}
	c.ledger = led

	// A campaign whose last upload landed just before the crash —
	// including mid-merge — re-merges here; merge is a deterministic
	// replay, so the restart cannot change a table cell.
	if c.board.Done() {
		c.merge()
	}
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.logf("campaign %s restored: %s, state %s", id, exp, c.state)
	return nil
}

func shardFile(idx int) string { return fmt.Sprintf("shard-%d.jsonl", idx) }

// info snapshots the campaign summary. Callers need not hold c.mu.
func (c *campaign) info() CampaignInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.infoLocked()
}

func (c *campaign) infoLocked() CampaignInfo {
	info := CampaignInfo{
		ID:         c.id,
		Kind:       c.req.Kind,
		Experiment: c.experiment,
		Engine:     c.req.Engine,
		State:      c.state,
		ShardCount: len(c.shards),
		TotalRuns:  c.total,
		LeaseMs:    c.lease.Milliseconds(),
		Error:      c.failure,
	}
	for _, st := range c.board.Statuses() {
		switch st.State {
		case experiment.ShardDone:
			info.DoneShards++
			info.CompletedRuns += st.Runs
		case experiment.ShardLeased:
			info.CompletedRuns += st.Completed
		}
	}
	return info
}

// lookup resolves a campaign by path ID.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *campaign {
	s.mu.Lock()
	c := s.campaigns[r.PathValue("id")]
	s.mu.Unlock()
	if c == nil {
		writeErr(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
	}
	return c
}

// shardArg parses the {shard} path segment against the campaign plan.
func shardArg(w http.ResponseWriter, r *http.Request, c *campaign) (int, bool) {
	n, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || n < 0 || n >= len(c.shards) {
		writeErr(w, http.StatusNotFound, "no shard %q in campaign %s", r.PathValue("shard"), c.id)
		return 0, false
	}
	return n, true
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	resp := ListResponse{Campaigns: []CampaignInfo{}}
	for _, id := range ids {
		s.mu.Lock()
		c := s.campaigns[id]
		s.mu.Unlock()
		if c != nil {
			resp.Campaigns = append(resp.Campaigns, c.info())
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	c.mu.Lock()
	resp := StatusResponse{
		CampaignInfo: c.infoLocked(),
		Spec:         c.spec,
		Shards:       c.board.Statuses(),
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	var req ClaimRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil || req.Worker == "" {
		writeErr(w, http.StatusBadRequest, "claim needs a worker name")
		return
	}
	c.mu.Lock()
	if c.state != StateRunning {
		c.mu.Unlock()
		writeJSON(w, http.StatusOK, ClaimResponse{Done: true})
		return
	}
	now := s.opts.Now()
	for _, sh := range c.board.ReclaimExpired(now) {
		idx := sh.Index
		s.logf("campaign %s shard %d lease expired, reclaimed", c.id, idx)
		s.broadcastLocked(c, Event{Type: "reclaim", Campaign: c.id, Shard: &idx})
	}
	sh, ok, err := c.board.Claim(req.Worker, now)
	if err != nil {
		c.mu.Unlock()
		writeErr(w, http.StatusInternalServerError, "recording claim: %v", err)
		return
	}
	if !ok {
		c.mu.Unlock()
		writeJSON(w, http.StatusOK, ClaimResponse{Wait: true})
		return
	}
	spec := c.spec
	spec.Cases = sh.Cases
	resp := ClaimResponse{
		Shard:      &sh,
		Spec:       &spec,
		Kind:       c.req.Kind,
		Experiment: c.experiment,
		Engine:     c.req.Engine,
		LeaseMs:    c.lease.Milliseconds(),
	}
	idx := sh.Index
	s.logf("campaign %s shard %d leased to %s", c.id, idx, req.Worker)
	s.broadcastLocked(c, Event{Type: "claim", Campaign: c.id, Shard: &idx, Worker: req.Worker})
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	n, ok := shardArg(w, r, c)
	if !ok {
		return
	}
	var req HeartbeatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil || req.Worker == "" {
		writeErr(w, http.StatusBadRequest, "heartbeat needs a worker name")
		return
	}
	c.mu.Lock()
	err := c.board.Heartbeat(req.Worker, n, req.CompletedRuns, s.opts.Now())
	if err == nil {
		s.broadcastLocked(c, Event{Type: "heartbeat", Campaign: c.id, Shard: &n, Worker: req.Worker})
	}
	c.mu.Unlock()
	if err != nil {
		// The lease was lost (expired and reclaimed, or completed by
		// another worker): 409 tells the worker to abandon the shard.
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	n, ok := shardArg(w, r, c)
	if !ok {
		return
	}
	worker := r.URL.Query().Get("worker")
	if worker == "" {
		writeErr(w, http.StatusBadRequest, "journal upload needs a ?worker= name")
		return
	}
	log, err := journal.Read(http.MaxBytesReader(w, r.Body, maxJournalBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "parsing journal: %v", err)
		return
	}
	// Validate outside the lock: completeness, seeds, provenance. An
	// invalid upload leaves the lease untouched — the worker keeps the
	// shard (a truncated upload will be re-sent; a foreign one 422s).
	if err := experiment.ValidateShardJournal(c.spec, c.experiment, c.shards[n], c.req.Engine, log); err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}

	c.mu.Lock()
	err = c.board.Complete(worker, n, c.shards[n].Runs, s.opts.Now())
	switch {
	case err == experiment.ErrShardComplete:
		// Benign duplicate from a reclaimed lease's original worker:
		// determinism makes both uploads byte-identical, so the redundant
		// copy is acknowledged and discarded.
		resp := CompleteResponse{Duplicate: true, Campaign: c.infoLocked()}
		c.mu.Unlock()
		writeJSON(w, http.StatusOK, resp)
		return
	case err != nil:
		c.mu.Unlock()
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	c.logs[n] = log
	if c.dir != "" {
		if perr := persistShardJournal(filepath.Join(c.dir, shardFile(n)), log); perr != nil {
			s.logf("campaign %s shard %d: persisting journal: %v", c.id, n, perr)
		}
	}
	s.logf("campaign %s shard %d completed by %s (%d/%d shards)",
		c.id, n, worker, len(c.logs), len(c.shards))
	s.broadcastLocked(c, Event{Type: "shard_done", Campaign: c.id, Shard: &n, Worker: worker})
	if c.board.Done() {
		c.merge()
		if c.state == StateComplete {
			s.logf("campaign %s complete: %d runs merged", c.id, c.total)
			s.broadcastLocked(c, Event{Type: "complete", Campaign: c.id})
		} else {
			s.logf("campaign %s failed: %s", c.id, c.failure)
			s.broadcastLocked(c, Event{Type: "failed", Campaign: c.id, Message: c.failure})
		}
		c.closeSubsLocked()
	}
	resp := CompleteResponse{Accepted: true, Campaign: c.infoLocked()}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// persistShardJournal writes a validated shard journal to the campaign
// state directory (render-and-rename, so a crash never leaves a partial
// file that a restore would reject).
func persistShardJournal(path string, log *journal.Log) error {
	tmp := path + ".tmp"
	rep := experiment.Reporter{Format: experiment.JournalFormat{}, Output: experiment.FileOutput{Path: tmp}}
	if err := rep.Report(&experiment.Results{Journal: log}); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// merge folds the shard journals into the campaign results. Caller
// holds c.mu.
func (c *campaign) merge() {
	logs := make([]*journal.Log, 0, len(c.logs))
	for i := 0; i < len(c.shards); i++ {
		if l := c.logs[i]; l != nil {
			logs = append(logs, l)
		}
	}
	res, err := experiment.MergeShards(c.spec, c.experiment, c.engine, logs)
	if err != nil {
		c.state = StateFailed
		c.failure = err.Error()
		return
	}
	c.results = res
	c.state = StateComplete
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	format, err := experiment.ParseFormat(r.URL.Query().Get("format"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	c.mu.Lock()
	res, state, failure := c.results, c.state, c.failure
	c.mu.Unlock()
	switch state {
	case StateFailed:
		writeErr(w, http.StatusConflict, "campaign %s failed: %s", c.id, failure)
		return
	case StateRunning:
		writeErr(w, http.StatusConflict, "campaign %s is still running", c.id)
		return
	}
	switch format.(type) {
	case experiment.JSONFormat:
		w.Header().Set("Content-Type", "application/json")
	case experiment.JournalFormat:
		w.Header().Set("Content-Type", "application/x-ndjson")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	rep := experiment.Reporter{Format: format, Output: experiment.WriterOutput{W: w}}
	if err := rep.Report(res); err != nil {
		s.logf("campaign %s: rendering results: %v", c.id, err)
	}
}

// sseEvent frames one Event as an SSE message.
func sseEvent(ev Event) []byte {
	data, _ := json.Marshal(ev)
	return []byte("event: " + ev.Type + "\ndata: " + string(data) + "\n\n")
}

// fill stamps the campaign snapshot fields onto an event. Caller holds
// c.mu.
func (c *campaign) fill(ev Event) Event {
	info := c.infoLocked()
	ev.State = info.State
	ev.CompletedRuns = info.CompletedRuns
	ev.TotalRuns = info.TotalRuns
	return ev
}

// broadcast delivers an event to every subscriber.
func (s *Server) broadcast(c *campaign, ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s.broadcastLocked(c, ev)
}

// broadcastLocked is broadcast with c.mu held. Sends never block: a
// subscriber whose channel is full misses the event (it can poll the
// status endpoint; SSE is a progress feed, not a reliable log).
func (s *Server) broadcastLocked(c *campaign, ev Event) {
	msg := sseEvent(c.fill(ev))
	for ch := range c.subs {
		select {
		case ch <- msg:
		default:
		}
	}
}

// closeSubsLocked ends every event stream (terminal campaign). Caller
// holds c.mu.
func (c *campaign) closeSubsLocked() {
	for ch := range c.subs {
		close(ch)
	}
	c.subs = make(map[chan []byte]struct{})
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	c.mu.Lock()
	// Every stream opens with a status snapshot.
	snap := sseEvent(c.fill(Event{Type: "status", Campaign: c.id}))
	terminal := c.state != StateRunning
	var ch chan []byte
	if !terminal {
		ch = make(chan []byte, 64)
		c.subs[ch] = struct{}{}
	}
	c.mu.Unlock()

	w.Write(snap)
	fl.Flush()
	if terminal {
		return
	}
	defer func() {
		c.mu.Lock()
		delete(c.subs, ch)
		c.mu.Unlock()
	}()
	for {
		select {
		case msg, ok := <-ch:
			if !ok {
				return
			}
			if _, err := w.Write(msg); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
