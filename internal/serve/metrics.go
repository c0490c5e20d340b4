package serve

import (
	"log/slog"
	"strconv"

	"procmine/internal/core"
	"procmine/internal/obs"
	"procmine/internal/wlog"
)

// Metric wiring for the service. Every series a request path touches is
// resolved once, at server construction, so handlers and shard ingest do
// atomic increments only — the registry lock is never taken per request.
// Instrumentation lives strictly at this orchestration layer; the mining
// kernels the hotalloc pass guards stay metrics-free (the hotalloc fixture
// test proves the analyzer would flag a violation).

// errorClasses enumerates the wlog decode-error classes that get
// per-shard counters. Watermark evictions surface here as class "limit"
// (wlog records an eviction as a quarantine plus a limit-class error), so
// the limit counter is the eviction signal.
func errorClasses() []wlog.ErrorClass {
	return []wlog.ErrorClass{wlog.ClassSyntax, wlog.ClassStructure, wlog.ClassLimit}
}

// rejectReasons enumerates the shard admission-rejection outcomes.
func rejectReasons() []string { return []string{"overload", "deadline"} }

// mineStageNames enumerates every /model stage — the shard collect, then
// core.MineViews' — registered at startup, so the families exist at zero
// and the request path never writes the stage map.
func mineStageNames() []string { return []string{"collect", "assemble", "scc", "mark", "merge"} }

// markResults enumerates the /model mark-cache outcomes.
func markResults() []string { return []string{"hit", "miss"} }

// shardMetrics is one shard's pre-resolved ingest series.
type shardMetrics struct {
	records     *obs.Counter // records read by the shard's stream
	executions  *obs.Counter // completed executions emitted into the miner
	skipped     *obs.Counter // records skipped by the recovery policy
	dropped     *obs.Counter // steps dropped
	quarantined *obs.Counter // executions quarantined (incl. watermark evictions)
	errs        map[wlog.ErrorClass]*obs.Counter
	rejected    map[string]*obs.Counter // admission rejections by reason
	transitions map[string]*obs.Counter // breaker transitions by target state
	snapSaveSec *obs.Histogram
	snapSaveB   *obs.Histogram
	snapLoadSec *obs.Histogram
	snapLoadB   *obs.Histogram
}

// serveMetrics owns every series the server exports plus the HTTP
// middleware. A nil *serveMetrics would never occur — New always builds
// one, against the injected registry or a private one.
type serveMetrics struct {
	httpm  *obs.HTTPMetrics
	shards []shardMetrics
	// mineStage maps stage name -> histogram, every stage registered at
	// construction and only read afterwards.
	mineStage map[string]*obs.Histogram
	// markCache counts /model mark-cache outcomes by result; setsReduced
	// counts the activity sets the marking pass reduced.
	markCache   map[string]*obs.Counter
	setsReduced *obs.Counter
	// decode-stage totals for the request-level decode pass, before events
	// are partitioned to shards.
	decodeRecords *obs.Counter
	decodeErrs    map[wlog.ErrorClass]*obs.Counter
}

// newServeMetrics resolves the full series set for a server with the given
// shard count.
func newServeMetrics(reg *obs.Registry, shards int, logger *slog.Logger) *serveMetrics {
	m := &serveMetrics{
		httpm:     obs.NewHTTPMetrics(reg, "procmined", logger),
		mineStage: make(map[string]*obs.Histogram),
		markCache: make(map[string]*obs.Counter),
		setsReduced: reg.Counter("procmined_mark_sets_reduced_total",
			"Activity sets reduced by the /model marking pass; a mark-cache hit reduces only those appended since the last mine."),
		decodeRecords: reg.Counter("procmined_decode_records_total",
			"Records read by the request decode stage, before shard partitioning."),
		decodeErrs: make(map[wlog.ErrorClass]*obs.Counter),
	}
	for _, c := range errorClasses() {
		m.decodeErrs[c] = reg.Counter("procmined_decode_errors_total",
			"Decode-stage errors by class.", obs.L("class", string(c)))
	}
	for _, stage := range mineStageNames() {
		m.mineStage[stage] = reg.Histogram("procmined_mine_stage_seconds",
			"Wall time per incremental-mine stage on /model requests.",
			obs.LatencyBuckets(), obs.L("stage", stage))
	}
	for _, result := range markResults() {
		m.markCache[result] = reg.Counter("procmined_mark_cache_total",
			"/model mark-cache lookups by result; a hit means the dependency graph was unchanged since the scope's last mine.",
			obs.L("result", result))
	}
	m.shards = make([]shardMetrics, shards)
	for i := range m.shards {
		shard := obs.L("shard", strconv.Itoa(i))
		sm := &m.shards[i]
		sm.records = reg.Counter("procmined_ingest_records_total",
			"Event records pushed into the shard's execution stream.", shard)
		sm.executions = reg.Counter("procmined_ingest_executions_total",
			"Completed executions emitted into the shard's miner.", shard)
		sm.skipped = reg.Counter("procmined_ingest_skipped_total",
			"Records skipped by the shard's recovery policy.", shard)
		sm.dropped = reg.Counter("procmined_ingest_steps_dropped_total",
			"Steps dropped by the shard's recovery policy.", shard)
		sm.quarantined = reg.Counter("procmined_ingest_quarantined_total",
			"Executions quarantined by the shard, including watermark evictions.", shard)
		sm.errs = make(map[wlog.ErrorClass]*obs.Counter)
		for _, c := range errorClasses() {
			sm.errs[c] = reg.Counter("procmined_ingest_errors_total",
				"Shard ingest errors by class; class=limit counts watermark evictions.",
				shard, obs.L("class", string(c)))
		}
		sm.rejected = make(map[string]*obs.Counter)
		for _, reason := range rejectReasons() {
			sm.rejected[reason] = reg.Counter("procmined_ingest_rejected_total",
				"Batches rejected by shard admission control; reason=overload maps to HTTP 429.",
				shard, obs.L("reason", reason))
		}
		sm.transitions = make(map[string]*obs.Counter)
		for _, to := range []string{breakerClosed, breakerOpen, breakerHalfOpen} {
			sm.transitions[to] = reg.Counter("procmined_breaker_transitions_total",
				"Circuit-breaker state transitions by target state.",
				shard, obs.L("to", to))
		}
		sm.snapSaveSec = reg.Histogram("procmined_snapshot_save_seconds",
			"Shard checkpoint write duration.", obs.LatencyBuckets(), shard)
		sm.snapSaveB = reg.Histogram("procmined_snapshot_save_bytes",
			"Shard checkpoint size on disk.", obs.SizeBuckets(), shard)
		sm.snapLoadSec = reg.Histogram("procmined_snapshot_restore_seconds",
			"Shard checkpoint restore (read + verify) duration.", obs.LatencyBuckets(), shard)
		sm.snapLoadB = reg.Histogram("procmined_snapshot_restore_bytes",
			"Shard checkpoint size restored from disk.", obs.SizeBuckets(), shard)
	}
	return m
}

// observeMine feeds a completed /model mine into the per-stage histograms
// and the mark-cache counters.
func (m *serveMetrics) observeMine(stages []obs.Stage, stats core.MarkStats) {
	for _, st := range stages {
		if h := m.mineStage[st.Name]; h != nil {
			h.Observe(st.Seconds)
		}
	}
	result := "miss"
	if stats.Hit {
		result = "hit"
	}
	m.markCache[result].Inc()
	m.setsReduced.Add(int64(stats.Sets))
}

// ingestDelta applies one request's outcome to a shard's series: the events
// pushed plus a before/after counterView delta. RecordsRead is a
// decode-stage counter that stream pushes never touch, so the records
// series counts the pushed events directly. A nil receiver (shards built
// outside a Server, as some tests do) is a no-op.
func (sm *shardMetrics) ingestDelta(events int, before, after counterView, executions int) {
	if sm == nil {
		return
	}
	sm.records.Add(int64(events))
	sm.executions.Add(int64(executions))
	sm.skipped.Add(int64(after.skipped - before.skipped))
	sm.dropped.Add(int64(after.dropped - before.dropped))
	sm.quarantined.Add(int64(after.quarantined - before.quarantined))
	for c, counter := range sm.errs {
		if d := after.errs[c] - before.errs[c]; d > 0 {
			counter.Add(int64(d))
		}
	}
}

// reject counts one admission rejection.
func (sm *shardMetrics) reject(reason string) {
	if sm == nil {
		return
	}
	if c := sm.rejected[reason]; c != nil {
		c.Inc()
	}
}

// breakerEvents adapts breaker transitions to metrics and logs. It is an
// interface implementation (not a bare callback) so the serve call graph
// stays fully resolved for the lock/context passes.
type breakerEvents struct {
	shard int
	met   *shardMetrics
	log   *slog.Logger
}

func (e *breakerEvents) breakerTransition(from, to string) {
	if c := e.met.transitions[to]; c != nil {
		c.Inc()
	}
	if e.log != nil {
		e.log.Info("breaker transition", "shard", e.shard, "from", from, "to", to)
	}
}
