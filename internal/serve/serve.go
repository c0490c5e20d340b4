// Package serve implements procmined's always-on mining service: an HTTP
// ingestion front end that partitions workflow events by process-instance
// key across independent shards, each owning an IncrementalMiner and an
// ExecutionStream, and serves the mined process model from the accumulated
// state at any time.
//
// Robustness is the point of the package, layered as:
//
//   - Crash recovery: every shard checkpoints its additive miner state and
//     in-flight executions to disk atomically; a restart restores each
//     checkpoint after verifying a mined-model digest, so a torn or
//     corrupted file is refused rather than silently mined.
//   - Backpressure: a shard whose open-execution budget is exhausted sheds
//     new work with 429 + Retry-After while the other shards keep serving.
//   - Graceful degradation: per-shard circuit breakers trip on sustained
//     bad-record rates and degrade only that shard to the Skip recovery
//     policy, auto-resetting with exponential backoff.
//   - Graceful shutdown: draining refuses new ingests with 503, waits for
//     in-flight requests, and flushes checkpoints with open executions
//     intact so a restart resumes them via the stream handoff.
package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"procmine/internal/core"
	"procmine/internal/obs"
	"procmine/internal/wlog"
)

// Config parameterizes a Server. The zero value serves single-sharded with
// no persistence, no budgets, and no breaker.
type Config struct {
	// Shards is the number of partitions; <= 0 means 1. Events route to
	// shards by an FNV hash of their process-instance ID, so one
	// execution's events always land on one shard.
	Shards int

	// Mine are the default mining options for /model requests.
	Mine core.Options

	// Ingest configures each shard's ExecutionStream (recovery policy,
	// watermarks) and the decode stage.
	Ingest wlog.IngestOptions

	// MaxOpenPerShard is each shard's open-execution admission budget;
	// a batch that would exceed it is rejected whole with 429. 0 means
	// unlimited (the wlog watermarks, if set, still apply).
	MaxOpenPerShard int

	// SnapshotDir is where shard checkpoints live; empty disables
	// persistence.
	SnapshotDir string

	// SnapshotEvery checkpoints a shard after that many newly completed
	// executions; <= 0 means only explicit/shutdown snapshots.
	SnapshotEvery int

	// RequestTimeout bounds /model mining work per request; 0 means no
	// server-imposed deadline.
	RequestTimeout time.Duration

	// Breaker configures the per-shard circuit breakers; the zero value
	// disables them.
	Breaker BreakerConfig

	// Clock overrides the system time source for tests.
	Clock Clock

	// Obs is the metrics registry the server exports on GET /metrics. nil
	// gets a private registry, so metrics always work; inject one to share
	// the registry with an admin listener (cmd/procmined does).
	Obs *obs.Registry

	// Logger receives structured request and lifecycle logs. nil discards
	// them.
	Logger *slog.Logger
}

// Clock is the server's time source. It is an interface rather than a bare
// func() time.Time so static analysis can attribute time reads to a named
// method instead of an unresolvable function value.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
}

// systemClock is the production Clock: real time.
type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// clock returns the effective time source.
func (c Config) clock() Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return systemClock{}
}

// withDefaults normalizes the config.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// Server is the sharded mining service. It implements http.Handler.
type Server struct {
	cfg    Config
	clock  Clock
	reg    *obs.Registry
	met    *serveMetrics
	log    *slog.Logger
	shards []*shard
	snaps  *snapshotter
	mux    *http.ServeMux

	mu       sync.Mutex
	intake   ReportTotals // decode-stage totals across all requests
	inflight int
	draining bool
	restored int // shards restored from checkpoints at startup
}

// New builds a Server, restoring any shard checkpoints found in
// cfg.SnapshotDir. A checkpoint that fails schema, topology, or integrity
// verification is an error: refusing to start beats mining from corrupt
// state.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	met := newServeMetrics(reg, cfg.Shards, logger)
	snaps, err := newSnapshotter(cfg.SnapshotDir, met, logger, cfg.clock())
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		clock: cfg.clock(),
		reg:   reg,
		met:   met,
		log:   logger,
		snaps: snaps,
	}
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		sm := &met.shards[i]
		s.shards[i] = newShard(i, cfg, sm, &breakerEvents{shard: i, met: sm, log: logger})
		snap, miner, err := snaps.load(i, cfg.Shards)
		if err != nil {
			return nil, err
		}
		if snap == nil {
			continue
		}
		if err := s.shards[i].restore(miner, snap.Open); err != nil {
			return nil, fmt.Errorf("serve: restore shard %d: %w", i, err)
		}
		s.restored++
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// Registry exposes the server's metrics registry, so the caller can mount
// the same registry on an admin listener (see obs.NewAdminMux).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Restored reports how many shards were restored from checkpoints at
// startup.
func (s *Server) Restored() int { return s.restored }

// shardFor routes a process-instance ID to its owning shard.
func (s *Server) shardFor(pid string) int {
	if len(s.shards) == 1 {
		return 0
	}
	h := fnv.New32a()
	// Writing to a hash.Hash never fails.
	_, _ = h.Write([]byte(pid))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// admit registers an in-flight request, refusing while draining.
func (s *Server) admit() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

// release retires an in-flight request.
func (s *Server) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
}

// snapshotAll checkpoints every shard. With persistence disabled it is a
// no-op reporting zero shards.
func (s *Server) snapshotAll() (int, error) {
	if !s.snaps.enabled() {
		return 0, nil
	}
	for _, sh := range s.shards {
		miner, open := sh.minerSnapshot()
		if err := s.snaps.save(sh.id, len(s.shards), miner, open); err != nil {
			return 0, err
		}
	}
	return len(s.shards), nil
}

// maybeSnapshot checkpoints shards whose completed-execution count has
// crossed SnapshotEvery since their last checkpoint.
func (s *Server) maybeSnapshot() error {
	if !s.snaps.enabled() || s.cfg.SnapshotEvery <= 0 {
		return nil
	}
	for _, sh := range s.shards {
		if !sh.pendingSnapshot(s.cfg.SnapshotEvery) {
			continue
		}
		miner, open := sh.minerSnapshot()
		if err := s.snaps.save(sh.id, len(s.shards), miner, open); err != nil {
			return err
		}
	}
	return nil
}

// drainStreams closes every shard's stream so Close-time structural errors
// (unterminated executions) surface in the shard reports.
func (s *Server) drainStreams() error {
	var first error
	for _, sh := range s.shards {
		if err := sh.drain(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Shutdown drains the server gracefully: new ingests get 503, in-flight
// requests finish (bounded by ctx), and every shard is checkpointed with
// its open executions intact, so a restart resumes them via the stream
// handoff. Streams are deliberately NOT closed here — closing would resolve
// still-open executions under the recovery policy and discard their partial
// state; an explicit POST /admin/drain does that when the trail is known to
// be complete.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.log.Info("shutdown started, draining in-flight requests")

	for {
		s.mu.Lock()
		n := s.inflight
		s.mu.Unlock()
		if n == 0 {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: shutdown: %d requests still in flight: %w", n, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}

	// The final checkpoint must complete even when the drain deadline has
	// expired: aborting the fsync mid-shutdown would lose shard state that
	// the whole snapshot subsystem exists to preserve.
	//lint:ignore procmine/ctxleak shutdown checkpoint is deliberately not cancellable
	n, err := s.snapshotAll()
	if err != nil {
		s.log.Error("shutdown checkpoint failed", "error", err)
		return err
	}
	s.log.Info("shutdown complete", "shards_checkpointed", n)
	return nil
}

// ServeHTTP dispatches to the registered routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}
