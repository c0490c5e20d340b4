package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"procmine/internal/core"
	"procmine/internal/obs"
	"procmine/internal/wlog"
)

// serveLog builds a log over the Example 7 variants, m executions.
func serveLog(m int) *wlog.Log {
	variants := []string{"ABCF", "ACDF", "ADEF", "AECF"}
	seqs := make([]string, m)
	for i := range seqs {
		seqs[i] = variants[i%len(variants)]
	}
	return wlog.LogFromStrings(seqs...)
}

// textOf serializes a log's events in the text codec.
func textOf(t *testing.T, l *wlog.Log) string {
	t.Helper()
	var b strings.Builder
	if err := wlog.WriteText(&b, l.Events()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// batchDot mines a whole log in one miner and renders it as the server
// would.
func batchDot(t *testing.T, l *wlog.Log, opt core.Options) string {
	t.Helper()
	im := core.NewIncrementalMiner()
	if err := im.AddLog(l); err != nil {
		t.Fatal(err)
	}
	g, err := im.Mine(opt)
	if err != nil {
		t.Fatal(err)
	}
	return g.Dot("procmined")
}

// do runs one request through the server without a network.
func do(t *testing.T, s *Server, method, target, contentType, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// ingestText posts a text-codec body and requires the given status.
func ingestText(t *testing.T, s *Server, body string, wantStatus int) IngestResponse {
	t.Helper()
	rec := do(t, s, http.MethodPost, "/ingest?format=text", "", body)
	if rec.Code != wantStatus {
		t.Fatalf("POST /ingest = %d, want %d; body: %s", rec.Code, wantStatus, rec.Body.String())
	}
	var resp IngestResponse
	if wantStatus < 500 && rec.Code != http.StatusServiceUnavailable {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding ingest response: %v; body: %s", err, rec.Body.String())
		}
	}
	return resp
}

// modelDot fetches the merged DOT model.
func modelDot(t *testing.T, s *Server) string {
	t.Helper()
	rec := do(t, s, http.MethodGet, "/model?format=dot", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /model = %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// TestShardedIngestMatchesBatch pins the headline serving property: a log
// ingested over HTTP across many shards mines to the byte-identical model a
// single batch run produces, for every shard count.
func TestShardedIngestMatchesBatch(t *testing.T) {
	l := serveLog(24)
	want := batchDot(t, l, core.Options{})
	for _, shards := range []int{1, 2, 4, 7} {
		s, err := New(Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		// Split the trail into three requests to exercise re-batching.
		events := l.Events()
		third := len(events) / 3
		for _, part := range [][]wlog.Event{events[:third], events[third : 2*third], events[2*third:]} {
			var b strings.Builder
			if err := wlog.WriteText(&b, part); err != nil {
				t.Fatal(err)
			}
			resp := ingestText(t, s, b.String(), http.StatusOK)
			if resp.Status != "ok" {
				t.Fatalf("shards=%d: ingest status %q", shards, resp.Status)
			}
		}
		if got := modelDot(t, s); got != want {
			t.Errorf("shards=%d: served model diverges from batch mine\ngot:\n%s\nwant:\n%s", shards, got, want)
		}
	}
}

// TestConcurrentIngestAndModel serves /model while /ingest batches land on
// every shard, so the race detector sees each shard merged into a request's
// private miner beside concurrent pushes, and checks that the final model
// equals one batch mine.
func TestConcurrentIngestAndModel(t *testing.T) {
	l := serveLog(48)
	want := batchDot(t, l, core.Options{})
	s, err := New(Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if rec := do(t, s, http.MethodGet, "/model?format=json", "", ""); rec.Code != http.StatusOK {
				t.Errorf("GET /model during ingest = %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()
	for i := 0; i < len(l.Executions); i += 6 {
		ingestText(t, s, textOf(t, &wlog.Log{Executions: l.Executions[i : i+6]}), http.StatusOK)
	}
	close(done)
	wg.Wait()
	if got := modelDot(t, s); got != want {
		t.Errorf("model after concurrent ingest diverges from batch mine\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestModelJSONAndSingleShard checks the JSON model rendering and the
// per-shard scope.
func TestModelJSONAndSingleShard(t *testing.T) {
	s, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ingestText(t, s, textOf(t, serveLog(8)), http.StatusOK)

	rec := do(t, s, http.MethodGet, "/model?format=json", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /model json = %d", rec.Code)
	}
	var m ModelResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Executions != 8 || len(m.Activities) == 0 || len(m.Edges) == 0 {
		t.Fatalf("model response %+v lacks executions/activities/edges", m)
	}

	per := 0
	for i := 0; i < 2; i++ {
		rec := do(t, s, http.MethodGet, fmt.Sprintf("/model?format=json&shard=%d", i), "", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /model shard=%d = %d", i, rec.Code)
		}
		var one ModelResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
			t.Fatal(err)
		}
		per += one.Executions
	}
	if per != m.Executions {
		t.Errorf("per-shard executions sum to %d, merged model has %d", per, m.Executions)
	}

	if rec := do(t, s, http.MethodGet, "/model?shard=9", "", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("out-of-range shard = %d, want 400", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/model?format=bogus", "", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("bogus format = %d, want 400", rec.Code)
	}
}

// TestIngestFormatsAndGzip checks the CSV/JSON codecs and gzip bodies reach
// the same miner state as the text codec.
func TestIngestFormatsAndGzip(t *testing.T) {
	l := serveLog(8)
	want := batchDot(t, l, core.Options{})

	// CSV via Content-Type.
	var csv bytes.Buffer
	if err := wlog.WriteCSV(&csv, l.Events()); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, http.MethodPost, "/ingest", "text/csv", csv.String()); rec.Code != http.StatusOK {
		t.Fatalf("CSV ingest = %d: %s", rec.Code, rec.Body.String())
	}
	if got := modelDot(t, s); got != want {
		t.Error("CSV-ingested model diverges from batch mine")
	}

	// JSON via explicit format param, gzip-compressed.
	var jsonBody bytes.Buffer
	if err := wlog.WriteJSON(&jsonBody, l.Events()); err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(jsonBody.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/ingest?format=json", bytes.NewReader(gz.Bytes()))
	req.Header.Set("Content-Encoding", "gzip")
	rec := httptest.NewRecorder()
	s2.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("gzip JSON ingest = %d: %s", rec.Code, rec.Body.String())
	}
	if got := modelDot(t, s2); got != want {
		t.Error("gzip JSON-ingested model diverges from batch mine")
	}

	if rec := do(t, s, http.MethodPost, "/ingest?format=tsv", "", "x"); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown format = %d, want 400", rec.Code)
	}
}

// shardPIDs returns process IDs routed to the given shard.
func shardPIDs(s *Server, shard, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		pid := fmt.Sprintf("p%d", i)
		if s.shardFor(pid) == shard {
			out = append(out, pid)
		}
	}
	return out
}

// startLine renders a START-only text record, leaving the execution open.
func startLine(pid string, ns int64) string {
	return fmt.Sprintf("%s A START %d\n", pid, ns)
}

// TestBackpressure429 checks per-shard load shedding: a shard at its
// open-execution budget rejects new work with 429 + Retry-After while the
// other shard keeps serving, and events for already-open executions are
// still admitted.
func TestBackpressure429(t *testing.T) {
	s, err := New(Config{Shards: 2, MaxOpenPerShard: 2, Ingest: wlog.IngestOptions{Policy: wlog.Skip}})
	if err != nil {
		t.Fatal(err)
	}
	full := shardPIDs(s, 0, 3)
	other := shardPIDs(s, 1, 1)

	// Fill shard 0's budget with two open executions.
	ingestText(t, s, startLine(full[0], 1000)+startLine(full[1], 2000), http.StatusOK)

	// A third new execution on shard 0 must shed with 429.
	rec := do(t, s, http.MethodPost, "/ingest?format=text", "", startLine(full[2], 3000))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded shard = %d, want 429; body: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 response lacks Retry-After")
	}
	var resp IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "partial" || len(resp.Shards) != 1 || resp.Shards[0].Applied || resp.Shards[0].Rejected == "" {
		t.Fatalf("shed response %+v", resp)
	}

	// The other shard still serves...
	ingestText(t, s, startLine(other[0], 4000), http.StatusOK)
	// ...and so do events for shard 0's already-open executions.
	body := fmt.Sprintf("%s A END %d\n%s A END %d\n", full[0], 5000, full[1], 6000)
	resp = ingestText(t, s, body, http.StatusOK)
	for _, sr := range resp.Shards {
		if !sr.Applied {
			t.Fatalf("in-flight completion rejected: %+v", sr)
		}
	}
	// Closing those executions freed the budget.
	ingestText(t, s, startLine(full[2], 7000), http.StatusOK)
}

// TestGracefulShutdown checks the drain sequence: new work gets 503, the
// model stays readable until the end, in-flight work completes, and
// shutdown checkpoints every shard.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Shards: 2, SnapshotDir: dir, Ingest: wlog.IngestOptions{Policy: wlog.Skip}})
	if err != nil {
		t.Fatal(err)
	}
	l := serveLog(8)
	ingestText(t, s, textOf(t, l), http.StatusOK)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if rec := do(t, s, http.MethodPost, "/ingest?format=text", "", startLine("p", 1)); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("ingest after shutdown = %d, want 503", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/healthz", "", ""); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz after shutdown = %d, want 503", rec.Code)
	}

	// The flushed checkpoints reconstruct the full model.
	s2, err := New(Config{Shards: 2, SnapshotDir: dir})
	if err != nil {
		t.Fatalf("restart after shutdown: %v", err)
	}
	if s2.Restored() != 2 {
		t.Fatalf("restored %d shards, want 2", s2.Restored())
	}
	if got, want := modelDot(t, s2), batchDot(t, l, core.Options{}); got != want {
		t.Error("model after shutdown/restart diverges from batch mine")
	}
}

// TestShutdownWaitsForInflight checks that Shutdown blocks on in-flight
// requests and honors its context deadline if they never finish.
func TestShutdownWaitsForInflight(t *testing.T) {
	s, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !s.admit() {
		t.Fatal("admit refused on a fresh server")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown returned while a request was in flight")
	}
	s.release()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := s.Shutdown(ctx2); err != nil {
		t.Fatalf("Shutdown after release: %v", err)
	}
}

// TestRequestDeadline checks that the per-request timeout surfaces as 504.
func TestRequestDeadline(t *testing.T) {
	s, err := New(Config{Shards: 1, RequestTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	// The miner needs some state so MineContext has work to cancel.
	s2, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ingestText(t, s2, textOf(t, serveLog(4)), http.StatusOK)
	miner := core.NewIncrementalMiner()
	s2.shards[0].collect(miner)
	if err := s.shards[0].restore(miner, nil); err != nil {
		t.Fatal(err)
	}

	if rec := do(t, s, http.MethodGet, "/model", "", ""); rec.Code != http.StatusGatewayTimeout {
		t.Errorf("GET /model under 1ns deadline = %d, want 504", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/ingest?format=text", "", startLine("p", 1)); rec.Code != http.StatusGatewayTimeout {
		t.Errorf("POST /ingest under 1ns deadline = %d, want 504", rec.Code)
	}
}

// TestStatsEndpoint sanity-checks the /stats projection.
func TestStatsEndpoint(t *testing.T) {
	s, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ingestText(t, s, textOf(t, serveLog(6)), http.StatusOK)
	rec := do(t, s, http.MethodGet, "/stats", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /stats = %d", rec.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Executions != 6 || len(st.Shards) != 2 || st.Draining {
		t.Fatalf("stats %+v, want 6 executions over 2 shards, not draining", st)
	}
	if st.Aggregate.EventsDecoded != st.Intake.EventsDecoded || st.Intake.EventsDecoded == 0 {
		t.Fatalf("aggregate/intake decode counts inconsistent: %+v", st)
	}

	// Shard rows carry no records_read: shards receive pushes, never read
	// records, so the field could only ever report 0.
	var raw struct {
		Shards []map[string]json.RawMessage `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for i, row := range raw.Shards {
		if _, ok := row["records_read"]; ok {
			t.Errorf("shard row %d carries records_read: %s", i, rec.Body.String())
		}
	}
	// The aggregate's records are the decode stage's, as exported.
	exp := do(t, s, http.MethodGet, "/metrics", "", "").Body.String()
	if got := metricSum(t, exp, "procmined_decode_records_total"); st.Aggregate.RecordsRead == 0 || float64(st.Aggregate.RecordsRead) != got {
		t.Errorf("aggregate.records_read = %d, procmined_decode_records_total = %v", st.Aggregate.RecordsRead, got)
	}
}

// TestResponseContentTypes pins the Content-Type of every response shape
// the server produces: JSON bodies (success and error), the DOT model, and
// the Prometheus exposition.
func TestResponseContentTypes(t *testing.T) {
	s, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ingestText(t, s, textOf(t, serveLog(4)), http.StatusOK)

	cases := []struct {
		method, target, want string
		status               int
	}{
		{http.MethodPost, "/ingest?format=text", "application/json", http.StatusOK},
		{http.MethodGet, "/stats", "application/json", http.StatusOK},
		{http.MethodGet, "/healthz", "application/json", http.StatusOK},
		{http.MethodGet, "/model?format=dot", "text/vnd.graphviz", http.StatusOK},
		{http.MethodGet, "/model?format=json", "application/json", http.StatusOK},
		{http.MethodGet, "/model?format=bogus", "application/json", http.StatusBadRequest},
		{http.MethodGet, "/model?shard=99", "application/json", http.StatusBadRequest},
		{http.MethodGet, "/metrics", obs.ExpositionContentType, http.StatusOK},
		{http.MethodPost, "/admin/snapshot", "application/json", http.StatusOK},
		{http.MethodPost, "/admin/drain", "application/json", http.StatusOK},
	}
	for _, c := range cases {
		body := ""
		if c.method == http.MethodPost && strings.HasPrefix(c.target, "/ingest") {
			body = textOf(t, serveLog(2))
		}
		rec := do(t, s, c.method, c.target, "", body)
		if rec.Code != c.status {
			t.Errorf("%s %s = %d, want %d: %s", c.method, c.target, rec.Code, c.status, rec.Body.String())
			continue
		}
		if got := rec.Header().Get("Content-Type"); got != c.want {
			t.Errorf("%s %s Content-Type = %q, want %q", c.method, c.target, got, c.want)
		}
	}
}

// metricSum sums the values of every exposition series line whose
// name-plus-labels rendering starts with prefix.
func metricSum(t *testing.T, exposition, prefix string) float64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("parsing series line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestMetricsEndpoint drives ingest, a model mine, and a snapshot through
// the server and checks the exposition reflects all of it: per-shard ingest
// counters, mine-stage timings, snapshot histograms, HTTP middleware
// series, and the always-present breaker family.
func TestMetricsEndpoint(t *testing.T) {
	s, err := New(Config{Shards: 2, SnapshotDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ingestText(t, s, textOf(t, serveLog(8)), http.StatusOK)
	modelDot(t, s)
	if rec := do(t, s, http.MethodPost, "/admin/snapshot", "", ""); rec.Code != http.StatusOK {
		t.Fatalf("POST /admin/snapshot = %d", rec.Code)
	}

	rec := do(t, s, http.MethodGet, "/metrics", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	exp := rec.Body.String()

	if got := metricSum(t, exp, "procmined_ingest_records_total"); got == 0 {
		t.Errorf("ingest_records_total sum = 0 after ingest")
	}
	if got := metricSum(t, exp, "procmined_ingest_executions_total"); got != 8 {
		t.Errorf("ingest_executions_total sum = %v, want 8", got)
	}
	// Both shards saw traffic (8 executions hash across 2 shards).
	for _, shard := range []string{"0", "1"} {
		series := `procmined_ingest_records_total{shard="` + shard + `"}`
		if !strings.Contains(exp, series) {
			t.Errorf("exposition missing per-shard series %s", series)
		}
	}
	if got := metricSum(t, exp, "procmined_mine_stage_seconds_count"); got == 0 {
		t.Errorf("mine_stage_seconds observed nothing after GET /model")
	}
	if got := metricSum(t, exp, `procmined_mine_stage_seconds_count{stage="collect"}`); got != 1 {
		t.Errorf(`mine_stage_seconds{stage="collect"} count = %v, want 1 after one GET /model`, got)
	}
	if got := metricSum(t, exp, "procmined_snapshot_save_seconds_count"); got != 2 {
		t.Errorf("snapshot_save_seconds count = %v, want 2 (one save per shard)", got)
	}
	if got := metricSum(t, exp, "procmined_snapshot_save_bytes_sum"); got == 0 {
		t.Errorf("snapshot_save_bytes recorded zero bytes")
	}
	if got := metricSum(t, exp, `procmined_http_request_seconds_count{class="2xx",route="/ingest"}`); got == 0 {
		t.Errorf("http middleware recorded no 2xx /ingest requests")
	}
	for _, family := range []string{
		"procmined_breaker_transitions_total",
		"procmined_decode_records_total",
		"procmined_ingest_rejected_total",
	} {
		if !strings.Contains(exp, "# TYPE "+family) {
			t.Errorf("exposition missing family %s", family)
		}
	}

	// A restart over the same snapshot dir records restore timings.
	s2, err := New(Config{Shards: 2, SnapshotDir: s.cfg.SnapshotDir})
	if err != nil {
		t.Fatal(err)
	}
	rec = do(t, s2, http.MethodGet, "/metrics", "", "")
	if got := metricSum(t, rec.Body.String(), "procmined_snapshot_restore_seconds_count"); got != 2 {
		t.Errorf("snapshot_restore_seconds count after restart = %v, want 2", got)
	}
}
