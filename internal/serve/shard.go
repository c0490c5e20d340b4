package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"procmine/internal/core"
	"procmine/internal/wlog"
)

// errShardOverloaded rejects an ingest batch that would push a shard past
// its open-execution budget; the HTTP layer maps it to 429 + Retry-After.
var errShardOverloaded = errors.New("serve: shard open-execution budget exhausted")

// shard owns one partition of the process-instance key space: an
// IncrementalMiner accumulating completed executions, an ExecutionStream
// assembling in-flight events under the configured recovery policy and
// watermarks, and a circuit breaker guarding the shard's health. All state
// is guarded by mu; shards share nothing, so the server scales ingest
// across them without coordination.
type shard struct {
	id    int
	opts  wlog.IngestOptions // configured (non-degraded) ingestion options
	clock Clock
	met   *shardMetrics // pre-resolved series; increments are atomic ops

	mu        sync.Mutex
	miner     *core.IncrementalMiner
	stream    *wlog.ExecutionStream
	rep       *wlog.IngestReport
	brk       *breaker
	maxOpen   int // admission budget; 0 = unlimited
	sinceSnap int // executions emitted since the last snapshot
	drained   bool
}

// newShard builds an empty shard. met carries the shard's pre-resolved
// metric series and watch observes its breaker transitions.
func newShard(id int, cfg Config, met *shardMetrics, watch breakerWatcher) *shard {
	sh := &shard{
		id:      id,
		opts:    cfg.Ingest,
		clock:   cfg.clock(),
		met:     met,
		miner:   core.NewIncrementalMiner(),
		rep:     wlog.NewIngestReport(cfg.Ingest),
		brk:     newBreaker(cfg.Breaker, watch),
		maxOpen: cfg.MaxOpenPerShard,
	}
	sh.stream = wlog.NewExecutionStreamWith(cfg.Ingest, sh.rep, func(e wlog.Execution) error {
		if err := sh.miner.Add(e); err != nil {
			return err
		}
		sh.sinceSnap++
		return nil
	})
	return sh
}

// counterView is the order-insensitive slice of an IngestReport used for
// per-request deltas.
type counterView struct {
	skipped, dropped, quarantined int
	errs                          map[wlog.ErrorClass]int
}

// countersOf snapshots a report's counters.
func countersOf(rep *wlog.IngestReport) counterView {
	v := counterView{
		skipped:     rep.RecordsSkipped,
		dropped:     rep.StepsDropped,
		quarantined: rep.ExecutionsQuarantined,
		errs:        make(map[wlog.ErrorClass]int, len(rep.Errors)),
	}
	for c, n := range rep.Errors {
		v.errs[c] = n
	}
	return v
}

// ShardResult reports what one shard did with its slice of an ingest
// request: delta counters relative to the shard's cumulative report, plus
// admission and degradation state.
type ShardResult struct {
	Shard       int            `json:"shard"`
	Events      int            `json:"events"`
	Applied     bool           `json:"applied"`
	Rejected    string         `json:"rejected,omitempty"`
	Degraded    bool           `json:"degraded,omitempty"`
	Open        int            `json:"open"`
	Skipped     int            `json:"records_skipped,omitempty"`
	Quarantined int            `json:"executions_quarantined,omitempty"`
	Errors      map[string]int `json:"errors,omitempty"`
	Error       string         `json:"error,omitempty"`
}

// ingest applies one request's slice of events to the shard: admission
// control against the open-execution budget, breaker-selected recovery
// policy, event push, and opportunistic emission of completed executions
// into the miner. It returns errShardOverloaded without touching any state
// when the batch would exceed the budget.
func (sh *shard) ingest(ctx context.Context, events []wlog.Event) (ShardResult, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	res := ShardResult{Shard: sh.id, Events: len(events)}
	if err := ctx.Err(); err != nil {
		res.Rejected = "deadline"
		sh.met.reject("deadline")
		return res, err
	}

	// Admission: events for already-open executions always pass (refusing
	// them would wedge those executions forever); events that would open
	// new executions past the budget shed the whole batch with 429.
	if sh.maxOpen > 0 {
		fresh := make(map[string]bool)
		for _, ev := range events {
			if !sh.stream.IsOpen(ev.ProcessID) {
				fresh[ev.ProcessID] = true
			}
		}
		if open := sh.stream.OpenExecutions(); open+len(fresh) > sh.maxOpen {
			res.Open = open
			res.Rejected = fmt.Sprintf("%d open + %d new executions > budget %d", open, len(fresh), sh.maxOpen)
			sh.met.reject("overload")
			return res, errShardOverloaded
		}
	}

	now := sh.clock.Now()
	degraded := sh.brk.degraded(now)
	if degraded {
		sh.stream.SetPolicy(wlog.Skip)
	} else {
		sh.stream.SetPolicy(sh.opts.Policy)
	}
	res.Degraded = degraded

	before := countersOf(sh.rep)
	execBefore := sh.miner.Executions()
	var ingestErr error
	for _, ev := range events {
		if ingestErr = sh.stream.Push(ev); ingestErr != nil {
			break
		}
	}
	if ingestErr == nil {
		ingestErr = sh.stream.EmitCompleted()
	}
	after := countersOf(sh.rep)
	sh.met.ingestDelta(len(events), before, after, sh.miner.Executions()-execBefore)

	res.Skipped = after.skipped - before.skipped
	res.Quarantined = after.quarantined - before.quarantined
	res.Errors = make(map[string]int)
	bad := 0
	for c, n := range after.errs {
		if d := n - before.errs[c]; d > 0 {
			res.Errors[string(c)] = d
			bad += d
		}
	}
	if len(res.Errors) == 0 {
		res.Errors = nil
	}
	if ingestErr != nil {
		// A FailFast abort records nothing in the report; it still counts
		// as (at least) one bad record for the breaker.
		if bad == 0 {
			bad = 1
		}
		res.Error = ingestErr.Error()
	}
	sh.brk.observe(len(events), bad, now)
	res.Open = sh.stream.OpenExecutions()
	res.Applied = ingestErr == nil
	return res, ingestErr
}

// minerSnapshot copies the shard's durable state for a checkpoint under the
// shard mutex: the miner, merged into a private one the caller encodes
// after the lock is released, and the open executions.
func (sh *shard) minerSnapshot() (*core.IncrementalMiner, []wlog.OpenExecution) {
	miner := core.NewIncrementalMiner()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.sinceSnap = 0
	miner.AddFrom(sh.miner)
	return miner, sh.stream.SnapshotOpen()
}

// pendingSnapshot reports whether count-based snapshotting is due.
func (sh *shard) pendingSnapshot(every int) bool {
	if every <= 0 {
		return false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sinceSnap >= every
}

// restore loads a checkpoint into a fresh shard.
func (sh *shard) restore(miner *core.IncrementalMiner, open []wlog.OpenExecution) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.miner.AddFrom(miner)
	return sh.stream.RestoreOpen(open)
}

// collect captures the shard's miner for a /model request under the shard
// mutex: a copy of the pair counts and the execution total, and the set
// arena by length, never reading a set. sinceSnap is untouched.
func (sh *shard) collect() core.StateView {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.miner.View()
}

// drain closes the shard's stream: completed executions are emitted into
// the miner and stuck ones handled per the configured policy (never the
// degraded one — a drain is deliberate, not load shedding). Draining is
// idempotent; an already-drained shard accepts further ingests, which
// simply re-open executions.
func (sh *shard) drain() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.stream.SetPolicy(sh.opts.Policy)
	sh.drained = true
	return sh.stream.Close()
}

// ShardStats is one shard's row in the /stats response. It has no records
// count: records are read by the decode stage before partitioning, so the
// server-wide figure is StatsResponse.Aggregate.RecordsRead, and the
// per-shard count of pushed records is procmined_ingest_records_total.
type ShardStats struct {
	Shard       int            `json:"shard"`
	Executions  int            `json:"executions"`
	Open        int            `json:"open"`
	Breaker     BreakerStatus  `json:"breaker"`
	Skipped     int            `json:"records_skipped,omitempty"`
	Quarantined int            `json:"executions_quarantined,omitempty"`
	Errors      map[string]int `json:"errors,omitempty"`
}

// stats snapshots the shard for reporting.
func (sh *shard) stats() ShardStats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := ShardStats{
		Shard:       sh.id,
		Executions:  sh.miner.Executions(),
		Open:        sh.stream.OpenExecutions(),
		Breaker:     sh.brk.status(sh.clock.Now()),
		Skipped:     sh.rep.RecordsSkipped,
		Quarantined: sh.rep.ExecutionsQuarantined,
	}
	if len(sh.rep.Errors) > 0 {
		st.Errors = make(map[string]int, len(sh.rep.Errors))
		for c, n := range sh.rep.Errors {
			st.Errors[string(c)] = n
		}
	}
	return st
}

// totals projects the shard's cumulative report for aggregation.
func (sh *shard) totals() ReportTotals {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return totalsOf(sh.rep)
}
