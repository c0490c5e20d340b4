package serve

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"

	"procmine/internal/core"
	"procmine/internal/graph"
	"procmine/internal/obs"
	"procmine/internal/wlog"
)

// routes wires the HTTP surface. Every route passes through the metrics
// middleware, which records latency and request/response byte histograms
// per route and status class, and emits one structured request log line.
// /metrics itself is served unwrapped: scrapes should not dilute the
// service's own latency series.
func (s *Server) routes() {
	s.mux.Handle("POST /ingest", s.wrap("/ingest", s.handleIngest))
	s.mux.Handle("GET /model", s.wrap("/model", s.handleModel))
	s.mux.Handle("GET /stats", s.wrap("/stats", s.handleStats))
	s.mux.Handle("GET /healthz", s.wrap("/healthz", s.handleHealthz))
	s.mux.Handle("POST /admin/snapshot", s.wrap("/admin/snapshot", s.handleSnapshot))
	s.mux.Handle("POST /admin/drain", s.wrap("/admin/drain", s.handleDrain))
	s.mux.Handle("GET /metrics", obs.MetricsHandler(s.reg))
}

// wrap mounts a handler behind the metrics middleware under its route
// label. It is a named method (not a closure) so the serve call graph
// stays fully resolved for the interprocedural passes.
func (s *Server) wrap(route string, h http.HandlerFunc) http.Handler {
	return s.met.httpm.Wrap(route, h)
}

// writeJSON emits one JSON response. Encoding errors past the header are
// unrecoverable mid-stream; they are deliberately dropped.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
}

// ingestFormat resolves the event codec for a request: the explicit
// ?format= query parameter wins, then the Content-Type, then the text
// codec.
func ingestFormat(r *http.Request) (string, error) {
	if f := r.URL.Query().Get("format"); f != "" {
		switch f {
		case "text", "csv", "json", "xes":
			return f, nil
		}
		return "", fmt.Errorf("unknown format %q (want text, csv, json, or xes)", f)
	}
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return "text", nil
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return "text", nil
	}
	switch mt {
	case "text/csv":
		return "csv", nil
	case "application/json":
		return "json", nil
	case "application/xml", "text/xml":
		return "xes", nil
	default:
		return "text", nil
	}
}

// decodeEvents runs the decode stage of one ingest request against a fresh
// report, so concurrent requests never share decode state. Events come back
// in record order.
func decodeEvents(r io.Reader, format string, opts wlog.IngestOptions) ([]wlog.Event, *wlog.IngestReport, error) {
	rep := wlog.NewIngestReport(opts)
	switch format {
	case "text":
		var events []wlog.Event
		_, err := wlog.StreamTextWith(r, opts, rep, func(ev wlog.Event) error {
			events = append(events, ev)
			return nil
		})
		return events, rep, err
	case "csv":
		var events []wlog.Event
		_, err := wlog.StreamCSVWith(r, opts, rep, func(ev wlog.Event) error {
			events = append(events, ev)
			return nil
		})
		return events, rep, err
	case "json":
		events, _, err := wlog.ReadJSONWith(r, opts, rep)
		return events, rep, err
	case "xes":
		l, _, err := wlog.ReadXESWith(r, opts, rep)
		if err != nil {
			return nil, rep, err
		}
		return l.Events(), rep, nil
	default:
		return nil, rep, fmt.Errorf("unknown format %q", format)
	}
}

// IngestResponse is the /ingest reply: the decode-stage totals for this
// request and what each involved shard did with its slice.
type IngestResponse struct {
	Status string        `json:"status"` // ok, partial, rejected
	Intake ReportTotals  `json:"intake"`
	Shards []ShardResult `json:"shards,omitempty"`
}

// requestContext applies the server's request deadline, if any.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return context.WithCancel(r.Context())
}

// handleIngest decodes one batch of events, partitions them by
// process-instance key, and applies each partition to its shard.
//
// Status codes: 503 while draining; 400 for undecodable input or a shard
// FailFast error; 429 with Retry-After when a shard sheds the batch for
// load (other shards' slices still apply — the response details each); 504
// when the request deadline expires.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.admit() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining: not accepting new work"})
		return
	}
	defer s.release()
	ctx, cancel := s.requestContext(r)
	defer cancel()

	format, err := ingestFormat(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	body := io.Reader(r.Body)
	if r.Header.Get("Content-Encoding") == "gzip" {
		gz, err := gzip.NewReader(body)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("gzip: %v", err)})
			return
		}
		defer func() { _ = gz.Close() }()
		body = gz
	}

	events, rep, decodeErr := decodeEvents(body, format, s.cfg.Ingest)
	intake := totalsOf(rep)
	s.mu.Lock()
	s.intake.add(intake)
	s.mu.Unlock()
	s.met.decodeRecords.Add(int64(rep.RecordsRead))
	for _, class := range errorClasses() {
		if n := rep.Errors[class]; n > 0 {
			s.met.decodeErrs[class].Add(int64(n))
		}
	}
	if decodeErr != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("decode: %v", decodeErr)})
		return
	}

	// Partition by process-instance key, preserving record order within
	// each shard, and apply in shard order.
	parts := make([][]wlog.Event, len(s.shards))
	for _, ev := range events {
		i := s.shardFor(ev.ProcessID)
		parts[i] = append(parts[i], ev)
	}
	resp := IngestResponse{Status: "ok", Intake: intake}
	overloaded, failed := false, false
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		res, err := s.shards[i].ingest(ctx, part)
		resp.Shards = append(resp.Shards, res)
		switch {
		case err == nil:
		case errors.Is(err, errShardOverloaded):
			overloaded = true
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			resp.Status = "rejected"
			writeJSON(w, http.StatusGatewayTimeout, resp)
			return
		default:
			failed = true
		}
	}
	if err := s.maybeSnapshot(); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	switch {
	case overloaded:
		resp.Status = "partial"
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, resp)
	case failed:
		resp.Status = "partial"
		writeJSON(w, http.StatusBadRequest, resp)
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

// modelEdge is one edge of the JSON model rendering.
type modelEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// ModelResponse is the JSON rendering of a mined model.
type ModelResponse struct {
	Executions int         `json:"executions"`
	Activities []string    `json:"activities"`
	Edges      []modelEdge `json:"edges"`
}

// modelResponseOf projects a mined digraph deterministically.
func modelResponseOf(g *graph.Digraph, executions int) ModelResponse {
	resp := ModelResponse{
		Executions: executions,
		Activities: g.Vertices(),
		Edges:      make([]modelEdge, 0, g.NumEdges()),
	}
	for _, e := range g.Edges() {
		resp.Edges = append(resp.Edges, modelEdge{From: e.From, To: e.To})
	}
	return resp
}

// handleModel mines the requested scope — all shards merged (default) or a
// single shard — and renders it as DOT (default) or JSON. Both parameters
// are checked before any shard is touched. Under each shard's lock the
// "collect" stage copies only the pair counts and captures the
// append-only set arenas by length (shard.collect); marking then runs
// outside every lock, through the scope's mark cache, which reduces only
// the sets appended since the last mine while the dependency graph is
// unchanged. The merge property makes the result byte-identical to mining
// the undivided log.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if !s.admit() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
		return
	}
	defer s.release()
	ctx, cancel := s.requestContext(r)
	defer cancel()

	format := r.URL.Query().Get("format")
	switch format {
	case "", "dot", "json":
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("unknown model format %q", format)})
		return
	}
	scope, cache := s.shards, &s.marks[len(s.shards)]
	if q := r.URL.Query().Get("shard"); q != "" && q != "all" {
		i, err := strconv.Atoi(q)
		if err != nil || i < 0 || i >= len(s.shards) {
			writeJSON(w, http.StatusBadRequest,
				errorResponse{Error: fmt.Sprintf("shard %q: want 0..%d or all", q, len(s.shards)-1)})
			return
		}
		scope, cache = s.shards[i:i+1], &s.marks[i]
	}

	g, executions, stages, stats, err := s.mineModel(ctx, scope, cache)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	s.met.observeMine(stages, stats)
	if format == "json" {
		writeJSON(w, http.StatusOK, modelResponseOf(g, executions))
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz")
	_, _ = io.WriteString(w, g.Dot("procmined"))
}

// mineModel mines one /model scope through its mark cache: the "collect"
// stage captures each shard under its lock, then core.MineViews runs with
// no lock held. It returns the graph, the executions it covers and the
// trace's stages.
func (s *Server) mineModel(ctx context.Context, scope []*shard, cache *core.MarkCache) (*graph.Digraph, int, []obs.Stage, core.MarkStats, error) {
	tr := obs.NewTrace()
	sp := tr.Start("collect")
	views := make([]core.StateView, len(scope))
	executions := 0
	for i, sh := range scope {
		views[i] = sh.collect()
		executions += views[i].Executions()
	}
	sp.End()
	g, stats, err := core.MineViews(ctx, views, cache, s.cfg.Mine, tr)
	return g, executions, tr.Stages(), stats, err
}

// StatsResponse is the /stats reply.
type StatsResponse struct {
	Shards     []ShardStats `json:"shards"`
	Intake     ReportTotals `json:"intake"`
	Aggregate  ReportTotals `json:"aggregate"`
	Executions int          `json:"executions"`
	Open       int          `json:"open"`
	Inflight   int          `json:"inflight"`
	Draining   bool         `json:"draining"`
	Restored   int          `json:"restored_shards,omitempty"`
}

// aggregate sums the decode-stage intake totals with every shard's stream
// totals — the server-wide equivalent of the single IngestReport a
// file-based pipeline threads through both stages.
func (s *Server) aggregate() (intake, agg ReportTotals) {
	s.mu.Lock()
	intake = s.intake
	s.mu.Unlock()
	agg = intake
	// Guard against aliasing the live intake slices/maps.
	agg.QuarantinedIDs = append([]string(nil), intake.QuarantinedIDs...)
	agg.Errors = nil
	if len(intake.Errors) > 0 {
		agg.Errors = make(map[string]int, len(intake.Errors))
		for c, n := range intake.Errors {
			agg.Errors[c] = n
		}
	}
	for _, sh := range s.shards {
		agg.add(sh.totals())
	}
	return intake, agg
}

// handleStats reports per-shard and aggregate health.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	intake, agg := s.aggregate()
	resp := StatsResponse{Intake: intake, Aggregate: agg}
	for _, sh := range s.shards {
		st := sh.stats()
		resp.Shards = append(resp.Shards, st)
		resp.Executions += st.Executions
		resp.Open += st.Open
	}
	s.mu.Lock()
	resp.Inflight = s.inflight
	resp.Draining = s.draining
	resp.Restored = s.restored
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is the liveness/readiness probe: 200 while serving, 503
// once draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// SnapshotResponse is the /admin/snapshot reply.
type SnapshotResponse struct {
	Shards int    `json:"shards_snapshotted"`
	Dir    string `json:"dir,omitempty"`
}

// handleSnapshot forces a checkpoint of every shard. Clients use it to
// establish a durable cut: state acked before the snapshot survives any
// crash after it.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	n, err := s.snapshotAll()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, SnapshotResponse{Shards: n, Dir: s.cfg.SnapshotDir})
}

// DrainResponse is the /admin/drain reply: the aggregate ingest report
// after every shard stream has been closed, so Close-time structural errors
// (unterminated executions) are included — matching what a file-based
// pipeline reports after its own Close.
type DrainResponse struct {
	Report ReportTotals `json:"report"`
	Error  string       `json:"error,omitempty"`
}

// handleDrain closes every shard's stream (resolving stuck executions per
// the configured policy) and returns the aggregate cumulative report.
// Ingest can continue afterwards; closed executions simply re-open.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	drainErr := s.drainStreams()
	_, agg := s.aggregate()
	resp := DrainResponse{Report: agg}
	status := http.StatusOK
	if drainErr != nil {
		resp.Error = drainErr.Error()
		status = http.StatusConflict
	}
	writeJSON(w, status, resp)
}
