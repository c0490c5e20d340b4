package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"procmine/internal/core"
	"procmine/internal/graph"
	"procmine/internal/obs"
	"procmine/internal/serve"
	"procmine/internal/wlog"
)

// Service workload shape: procmined's default configuration (4 shards,
// Skip policy, 30 s request deadline), whole executions per ingest batch
// as loggen sends them, and a /model reader on a fixed schedule.
const (
	serviceShards  = 4
	batchExecs     = 200
	modelInterval  = 2 * time.Second
	requestTimeout = 30 * time.Second
	modelReplays   = 3 // replayed incremental mines per traced run
)

// serviceConfig is what cmd/procmined builds from its default flags.
func serviceConfig() serve.Config {
	return serve.Config{
		Shards:         serviceShards,
		Ingest:         wlog.IngestOptions{Policy: wlog.Skip},
		RequestTimeout: requestTimeout,
	}
}

// poolBatch is one pre-encoded /ingest body of whole pool executions.
type poolBatch struct {
	body   []byte // text codec, original execution IDs
	first  int    // pool index of the batch's first execution
	execs  int
	events int
}

// encodePool splits the pool into /ingest bodies, each execution's events
// in order, as loggen encodes them.
func encodePool(pool *wlog.Log) ([]poolBatch, error) {
	var out []poolBatch
	for i := 0; i < len(pool.Executions); i += batchExecs {
		end := min(i+batchExecs, len(pool.Executions))
		var events []wlog.Event
		for _, e := range pool.Executions[i:end] {
			events = append(events, e.Events()...)
		}
		var buf bytes.Buffer
		if err := wlog.WriteText(&buf, events); err != nil {
			return nil, err
		}
		out = append(out, poolBatch{body: buf.Bytes(), first: i, execs: end - i, events: len(events)})
	}
	return out, nil
}

// cyclePrefix qualifies execution IDs on the cycle-th re-send of the pool,
// so every re-send is a new process instance with the same activity set.
func cyclePrefix(cycle int) string { return "c" + strconv.Itoa(cycle) + "_" }

// cycleBody writes body with every line's process ID prefixed for cycle.
func cycleBody(dst *bytes.Buffer, body []byte, cycle int) []byte {
	dst.Reset()
	prefix := cyclePrefix(cycle)
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n') + 1
		if i == 0 {
			i = len(body)
		}
		dst.WriteString(prefix)
		dst.Write(body[:i])
		body = body[i:]
	}
	return dst.Bytes()
}

// service is an in-process serve.Server behind a real loopback listener.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error // hs.Serve's result
	base   string
	client *http.Client
}

func startService() (*service, error) {
	srv, err := serve.New(serviceConfig())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		// Two connections: one per client goroutine. The benchmark never
		// cancels a request; the timeout only bounds a hung server.
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
			Timeout:   time.Minute,
		},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and the server down and waits for Serve to
// return.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// errRejected marks an ingest the server shed with 429.
var errRejected = errors.New("ingest rejected with 429")

// get fetches path and returns the body of a 200 response.
func (s *service) get(path string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// ingest posts one text batch; only a 200 with status "ok" counts as
// acked.
func (s *service) ingest(body []byte) error {
	req, err := http.NewRequest(http.MethodPost, s.base+"/ingest?format=text", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var ir serve.IngestResponse
	derr := json.NewDecoder(resp.Body).Decode(&ir)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return errRejected
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("ingest: status %d", resp.StatusCode)
	case derr != nil:
		return fmt.Errorf("ingest: decoding response: %w", derr)
	case ir.Status != "ok":
		return fmt.Errorf("ingest: status %q", ir.Status)
	}
	return nil
}

// modelEdge is one edge of the JSON /model rendering.
type modelEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// modelView is the part of the JSON /model rendering the checks compare.
type modelView struct {
	Executions int         `json:"executions"`
	Activities []string    `json:"activities"`
	Edges      []modelEdge `json:"edges"`
}

// key renders the model's activities and edges for comparison.
func (m modelView) key() string {
	var b strings.Builder
	b.WriteString(strings.Join(m.Activities, ","))
	for _, e := range m.Edges {
		b.WriteString(";" + e.From + ">" + e.To)
	}
	return b.String()
}

// graphKey renders a mined graph the way modelView.key renders /model.
func graphKey(g *graph.Digraph) string {
	m := modelView{Activities: g.Vertices()}
	for _, e := range g.Edges() {
		m.Edges = append(m.Edges, modelEdge{From: e.From, To: e.To})
	}
	return m.key()
}

func (s *service) model() (modelView, error) {
	var m modelView
	body, err := s.get("/model?format=json")
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return m, fmt.Errorf("decoding /model: %w", err)
	}
	return m, nil
}

// preload ingests every pool batch once, under the original IDs.
func (s *service) preload(r *report, batches []poolBatch) error {
	for _, b := range batches {
		err := s.ingest(b.body)
		r.op(err)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// promSample is one line of the Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape reads GET /metrics.
func (s *service) scrape() ([]promSample, error) {
	body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	var out []promSample
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("/metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		ps := promSample{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(ps.name, '{'); i >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(ps.name[i+1:], "}"), ",") {
				k, v, ok := strings.Cut(kv, "=")
				if ok {
					ps.labels[k] = strings.Trim(v, `"`)
				}
			}
			ps.name = ps.name[:i]
		}
		out = append(out, ps)
	}
	return out, nil
}

// promDelta sums, over series of name whose labels include match, the
// growth from before to after.
func promDelta(before, after []promSample, name string, match map[string]string) float64 {
	sum := func(ss []promSample) float64 {
		var t float64
	next:
		for _, s := range ss {
			if s.name != name {
				continue
			}
			for k, v := range match {
				if s.labels[k] != v {
					continue next
				}
			}
			t += s.value
		}
		return t
	}
	return sum(after) - sum(before)
}

// meanMs is the mean observation, in ms, a histogram gained between two
// scrapes.
func meanMs(before, after []promSample, name string, match map[string]string) float64 {
	n := promDelta(before, after, name+"_count", match)
	if n == 0 {
		return 0
	}
	return promDelta(before, after, name+"_sum", match) / n * 1e3
}

// ackedBatch is one timed-phase ingest the server acknowledged.
type ackedBatch struct{ cycle, batch int }

// timedResult is what the two clients observed.
type timedResult struct {
	ingestMs   sample
	ingestSec  time.Duration // first send to last reply
	acked      []ackedBatch
	events     int
	rejected   int
	modelMs    sample // from each request's due time
	lateMs     sample // how late each request left against its schedule
	modelKeys  map[string]int
	activities map[int]int
}

// timed runs the closed-loop ingest client and the open-loop /model
// poller side by side for d.
func (s *service) timed(r *report, tr *tracer, batches []poolBatch, d time.Duration) *timedResult {
	res := &timedResult{modelKeys: map[string]int{}, activities: map[int]int{}}
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex // guards r and res across the two clients
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		root := tr.start("bench.ingest_client", nil, false)
		defer root.end()
		var buf bytes.Buffer
		for cycle, i := 1, 0; time.Now().Before(deadline); i++ {
			if i == len(batches) {
				cycle, i = cycle+1, 0
			}
			b := batches[i]
			body := cycleBody(&buf, b.body, cycle)
			sp := tr.start("serve.ingest", root, false)
			t0 := time.Now()
			err := s.ingest(body)
			took := time.Since(t0)
			sp.end()
			mu.Lock()
			res.ingestSec = time.Since(start)
			switch {
			case errors.Is(err, errRejected):
				res.rejected++
				r.op(err)
			case err != nil:
				r.op(err)
			default:
				r.op(nil)
				res.ingestMs = append(res.ingestMs, ms(took))
				res.acked = append(res.acked, ackedBatch{cycle: cycle, batch: i})
				res.events += b.events
			}
			mu.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		root := tr.start("bench.model_client", nil, false)
		defer root.end()
		for due := start.Add(modelInterval); due.Before(deadline); due = due.Add(modelInterval) {
			time.Sleep(time.Until(due))
			sent := time.Now()
			sp := tr.start("serve.model", root, false)
			m, err := s.model()
			sp.end()
			done := time.Now()
			mu.Lock()
			r.op(err)
			if err == nil {
				res.modelMs = append(res.modelMs, ms(done.Sub(due)))
				res.lateMs = append(res.lateMs, ms(sent.Sub(due)))
				res.modelKeys[m.key()]++
				res.activities[len(m.Activities)]++
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	return res
}

// ackedLog is exactly the executions the server acknowledged: the pool
// (preload) plus every acked timed batch under its cycle's IDs. Copies
// share the pool's steps.
func ackedLog(pool *wlog.Log, batches []poolBatch, acked []ackedBatch) *wlog.Log {
	l := &wlog.Log{Executions: append([]wlog.Execution(nil), pool.Executions...)}
	for _, a := range acked {
		b := batches[a.batch]
		prefix := cyclePrefix(a.cycle)
		for _, e := range pool.Executions[b.first : b.first+b.execs] {
			l.Executions = append(l.Executions, wlog.Execution{ID: prefix + e.ID, Steps: e.Steps})
		}
	}
	return l
}

// runService runs service-mixed: repeated set-ups, the timed phase with
// both clients, the checks against batch mining, and, traced, the
// per-layer replays.
func runService(r *report, tr *tracer) error {
	pool, params, err := dagPool(r.cfg.seed)
	if err != nil {
		return fmt.Errorf("generating pool: %w", err)
	}
	batches, err := encodePool(pool)
	if err != nil {
		return fmt.Errorf("encoding pool: %w", err)
	}
	poolEvents := 0
	for _, b := range batches {
		poolEvents += b.events
	}
	labeled, err := core.LabelInstances(pool)
	if err != nil {
		return err
	}
	poolSets := labeled.Columnar().NumSets()
	params["events"] = poolEvents
	params["distinct_sets"] = poolSets
	params["shards"] = serviceShards
	params["batch_executions"] = batchExecs
	params["ingest_client"] = "closed loop, 1 connection, back-to-back batches"
	params["model_client"] = fmt.Sprintf("open loop, 1 connection, GET /model?format=json every %v", modelInterval)
	r.prov["workload_params"] = params

	// Set-up: a fresh server preloaded with the pool, several times; the
	// last one serves the timed phase.
	var setup sample
	var svc *service
	var base uint64
	for i := 0; i < setupReps; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return fmt.Errorf("stopping set-up server: %w", err)
			}
			svc = nil
		}
		base = heapAlloc()
		t0 := time.Now()
		svc, err = startService()
		if err != nil {
			return err
		}
		if err := svc.preload(r, batches); err != nil {
			_ = svc.stop() // the preload error is the one to report
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer func() {
		if svc != nil {
			_ = svc.stop() // an error path is already being reported
		}
	}()

	before, err := svc.scrape()
	if err != nil {
		return err
	}
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	c0 := cpuTime()
	res := svc.timed(r, tr, batches, r.cfg.seconds)
	c1 := cpuTime()
	runtime.ReadMemStats(&msAfter)
	after, err := svc.scrape()
	if err != nil {
		return err
	}
	if len(res.ingestMs) == 0 || len(res.modelMs) == 0 {
		return fmt.Errorf("timed phase acked %d ingests and %d models", len(res.ingestMs), len(res.modelMs))
	}
	live := heapAlloc()

	r.set("setup_s", setup.median(), len(setup))
	r.setTiming("ingest_p50_ms", "ingest_tail_ms", res.ingestMs)
	r.setTiming("model_p50_ms", "model_tail_ms", res.modelMs)
	r.set("ingest_events_per_s", float64(res.events)/res.ingestSec.Seconds(), len(res.ingestMs))
	r.set("alloc_b_per_event", float64(msAfter.TotalAlloc-msBefore.TotalAlloc)/float64(res.events), len(res.ingestMs))
	r.set("heap_mb", float64(live-base)/1e6, 1)
	r.set("cpu_us_per_event", float64((c1-c0).Microseconds())/float64(res.events), len(res.ingestMs))
	late, latePct := res.lateMs.tail()
	r.prov["model_poller_late_ms"] = map[string]float64{
		"p50": res.lateMs.median(), "tail": late, "tail_pct": latePct, "max": res.lateMs.sorted()[len(res.lateMs)-1],
	}

	// Checks: the served model equals batch mining of exactly what was
	// acked, /stats counts it, and the state stayed flat.
	final, err := svc.model()
	r.op(err)
	if err != nil {
		return err
	}
	statsBody, err := svc.get("/stats")
	r.op(err)
	if err != nil {
		return err
	}
	var stats serve.StatsResponse
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		return fmt.Errorf("decoding /stats: %w", err)
	}
	ref := ackedLog(pool, batches, res.acked)
	r.check("stats_executions", stats.Executions == len(ref.Executions),
		"/stats executions %d, acked %d", stats.Executions, len(ref.Executions))
	r.check("model_executions", final.Executions == len(ref.Executions),
		"/model executions %d, acked %d", final.Executions, len(ref.Executions))
	g, err := core.MineContext(context.Background(), ref, core.Options{})
	if err != nil {
		return fmt.Errorf("reference mine: %w", err)
	}
	r.check("model_equals_batch_mine", final.key() == graphKey(g),
		"/model: %d activities %d edges; batch MineContext: %d activities %d edges",
		len(final.Activities), len(final.Edges), g.NumVertices(), g.NumEdges())
	r.check("shape_no_429", res.rejected == 0, "%d ingests shed with 429", res.rejected)
	_, finalSeen := res.modelKeys[final.key()]
	r.check("shape_state_flat", len(res.modelKeys) == 1 && finalSeen && len(res.activities) == 1,
		"%d distinct models and %d activity counts served during the timed phase", len(res.modelKeys), len(res.activities))

	// Server-side series over the timed phase.
	route := func(rt string) map[string]string { return map[string]string{"route": rt} }
	ingestSrv := meanMs(before, after, "procmined_http_request_seconds", route("/ingest"))
	modelSrv := meanMs(before, after, "procmined_http_request_seconds", route("/model"))
	r.set("serve.ingest_server_ms_mean", ingestSrv, len(res.ingestMs))
	r.set("serve.model_server_ms_mean", modelSrv, len(res.modelMs))
	staged := 0.0
	for _, st := range []string{"assemble", "scc", "mark", "merge"} {
		v := meanMs(before, after, "procmined_mine_stage_seconds", map[string]string{"stage": st})
		staged += v
		r.set("core.inc_"+st+"_ms", v, len(res.modelMs))
	}
	r.set("serve.model_unstaged_ms", modelSrv-staged, len(res.modelMs))
	var clientIngest float64
	for _, v := range res.ingestMs {
		clientIngest += v
	}
	r.set("serve.http_overhead_ms", clientIngest/float64(len(res.ingestMs))-ingestSrv, len(res.ingestMs))
	var recMax, recSum float64
	for i := 0; i < serviceShards; i++ {
		v := promDelta(before, after, "procmined_ingest_records_total", map[string]string{"shard": strconv.Itoa(i)})
		recMax, recSum = max(recMax, v), recSum+v
	}
	r.set("serve.shard_skew", recMax/(recSum/serviceShards), serviceShards)
	rejected := promDelta(before, after, "procmined_ingest_rejected_total", nil)
	decodeErrs := promDelta(before, after, "procmined_decode_errors_total", nil)
	r.set("serve.rejected", rejected, 1)
	r.set("serve.decode_errors", decodeErrs, 1)
	r.check("server_counts_clean", rejected == 0 && decodeErrs == 0,
		"server counted %v rejected batches and %v decode errors", rejected, decodeErrs)
	r.set("core.activities", float64(len(final.Activities)), 1)
	r.set("core.final_edges", float64(len(final.Edges)), 1)
	r.set("wlog.events", float64(poolEvents), 1)
	r.set("core.distinct_sets", float64(poolSets), 1)

	if err := svc.stop(); err != nil {
		return fmt.Errorf("stopping server: %w", err)
	}
	svc = nil
	if tr == nil {
		return nil
	}
	return replayLayers(r, tr, batches, poolSets, final.key())
}

// shardOf routes a process-instance ID the way serve.Server does, so each
// replayed miner holds one shard's state.
func shardOf(pid string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(pid)) // writing to a hash never fails
	return int(h.Sum32() % serviceShards)
}

// replayLayers times the calls a /ingest and a /model make into wlog and
// core, one layer at a time, over one pass of the pool's request bodies.
// poolSets is the pool's count of distinct labeled activity sets and served
// the final /model, both of which the replayed state must reproduce.
func replayLayers(r *report, tr *tracer, batches []poolBatch, poolSets int, served string) error {
	root := tr.start("bench.replay", nil, true)
	defer root.end()
	opts := serviceConfig().Ingest

	// Decode: what handleIngest does with each text body.
	decoded := make([][]wlog.Event, len(batches))
	events := 0
	sp := tr.start("wlog.stream_decode", root, true)
	for i, b := range batches {
		rep := wlog.NewIngestReport(opts)
		if _, err := wlog.StreamTextWith(bytes.NewReader(b.body), opts, rep, func(ev wlog.Event) error {
			decoded[i] = append(decoded[i], ev)
			return nil
		}); err != nil {
			return fmt.Errorf("replaying decode: %w", err)
		}
		events += len(decoded[i])
	}
	dec := sp.end()
	r.set("wlog.stream_decode_us_per_event", dec.seconds()*1e6/float64(events), events)

	// Push: each shard's stream assembles its slice of every batch.
	completed := make([][]wlog.Execution, serviceShards)
	streams := make([]*wlog.ExecutionStream, serviceShards)
	for i := range streams {
		streams[i] = wlog.NewExecutionStreamWith(opts, wlog.NewIngestReport(opts), func(e wlog.Execution) error {
			completed[i] = append(completed[i], e)
			return nil
		})
	}
	parts := make([][][]wlog.Event, len(decoded))
	for i, evs := range decoded {
		parts[i] = make([][]wlog.Event, serviceShards)
		for _, ev := range evs {
			s := shardOf(ev.ProcessID)
			parts[i][s] = append(parts[i][s], ev)
		}
	}
	sp = tr.start("wlog.stream_push", root, true)
	for _, p := range parts {
		for s, evs := range p {
			for _, ev := range evs {
				if err := streams[s].Push(ev); err != nil {
					return fmt.Errorf("replaying push: %w", err)
				}
			}
			if err := streams[s].EmitCompleted(); err != nil {
				return fmt.Errorf("replaying emit: %w", err)
			}
		}
	}
	push := sp.end()
	r.set("wlog.stream_push_us_per_event", push.seconds()*1e6/float64(events), events)

	// Fold: IncrementalMiner.Add per completed execution, per shard.
	miners := make([]*core.IncrementalMiner, serviceShards)
	execs := 0
	sp = tr.start("core.fold", root, true)
	for s := range miners {
		miners[s] = core.NewIncrementalMiner()
		for _, e := range completed[s] {
			if err := miners[s].Add(e); err != nil {
				return fmt.Errorf("replaying fold: %w", err)
			}
		}
		execs += len(completed[s])
	}
	fold := sp.end()
	r.set("core.fold_us_per_exec", fold.seconds()*1e6/float64(execs), execs)
	r.set("core.fold_allocs_per_exec", float64(fold.Allocs)/float64(execs), execs)

	// Export and restore: the /model read path over every shard.
	var export sample
	snaps := make([]*core.MinerSnapshot, serviceShards)
	for s, m := range miners {
		sp = tr.start("core.export", root, true)
		snaps[s] = m.Snapshot()
		export = append(export, sp.end().seconds()*1e3)
	}
	r.set("core.export_ms", export.median(), len(export))
	merged := core.NewIncrementalMiner()
	sp = tr.start("core.restore", root, true)
	for _, snap := range snaps {
		if err := merged.RestoreSnapshot(snap); err != nil {
			return fmt.Errorf("replaying restore: %w", err)
		}
	}
	r.set("core.restore_ms", sp.end().seconds()*1e3, 1)
	state := merged.Snapshot()
	r.set("core.state_sigs", float64(len(state.Sigs)), 1)
	r.check("shape_state_sigs", len(state.Sigs) == poolSets,
		"shard states hold %d signatures, the pool has %d distinct activity sets", len(state.Sigs), poolSets)
	r.set("core.state_pairs", float64(len(state.Order)), 1)
	r.set("core.state_activities", float64(len(state.Activities)), 1)

	// Mine: untraced and traced incremental mines of the merged state; the
	// difference is what obs tracing costs.
	var plain, traced sample
	var g *graph.Digraph
	var err error
	for i := 0; i < modelReplays; i++ {
		t0 := time.Now()
		if g, err = merged.MineContext(context.Background(), core.Options{}); err != nil {
			return fmt.Errorf("replaying mine: %w", err)
		}
		plain = append(plain, time.Since(t0).Seconds())
		ot := obs.NewTrace()
		sp = tr.start("core.mine", root, true)
		t0 = time.Now()
		if _, err = merged.MineTracedContext(context.Background(), core.Options{}, ot); err != nil {
			return fmt.Errorf("replaying traced mine: %w", err)
		}
		traced = append(traced, time.Since(t0).Seconds())
		tr.attachStages(sp.end(), ot.Stages(), func(st string) string { return "core.inc_" + st })
	}
	r.set("obs.trace_overhead_s", traced.median()-plain.median(), len(traced))
	r.check("replay_equals_served_model", graphKey(g) == served,
		"replayed pool state mines %d activities %d edges, unlike the served model", g.NumVertices(), g.NumEdges())
	return nil
}
