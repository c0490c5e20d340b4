package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"

	"procmine/internal/core"
	"procmine/internal/wlog"
)

// ShardSnapshotSchema versions the on-disk shard checkpoint format. Loading
// rejects any other schema string instead of guessing.
const ShardSnapshotSchema = "procmined-shard-snapshot/v1"

// ErrSnapshotIntegrity reports a checkpoint whose recorded model digest does
// not match the model mined from its own state — a torn, corrupted, or
// hand-edited file.
var ErrSnapshotIntegrity = errors.New("serve: snapshot failed integrity check")

// shardSnapshot is one shard's durable checkpoint: the additive miner state,
// the in-flight open executions, and a self-check digest. Shards records the
// topology so a restart with a different shard count fails loudly instead of
// mis-partitioning.
type shardSnapshot struct {
	Schema     string `json:"schema"`
	Shard      int    `json:"shard"`
	Shards     int    `json:"shards"`
	Executions int    `json:"executions"`
	// ModelSHA256 is the hex sha256 of the DOT rendering of mining the
	// snapshotted miner state with zero options. Restore re-mines and
	// compares; the miner's determinism turns the digest into an
	// end-to-end integrity oracle rather than a mere byte checksum.
	ModelSHA256 string               `json:"model_sha256"`
	Miner       *core.MinerSnapshot  `json:"miner"`
	Open        []wlog.OpenExecution `json:"open,omitempty"`
}

// modelDigest mines a miner's state with zero options and hashes the
// canonical DOT rendering.
func modelDigest(im *core.IncrementalMiner) (string, error) {
	g, err := im.Mine(core.Options{})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(g.Dot("snapshot")))
	return hex.EncodeToString(sum[:]), nil
}

// snapshotter persists shard checkpoints under one directory, one file per
// shard, written atomically (temp file + fsync + rename) so a crash mid-write
// leaves the previous checkpoint intact. Saves and loads record their
// duration and byte size on the per-shard histograms and emit slog
// lifecycle events; both happen outside any shard mutex, so the file I/O
// here never blocks ingest.
type snapshotter struct {
	dir   string
	met   *serveMetrics // may be nil (tests constructing snapshotters directly)
	log   *slog.Logger  // may be nil
	clock Clock
}

// newSnapshotter ensures the snapshot directory exists. An empty dir
// disables persistence.
func newSnapshotter(dir string, met *serveMetrics, log *slog.Logger, clock Clock) (*snapshotter, error) {
	sn := &snapshotter{dir: dir, met: met, log: log, clock: clock}
	if clock == nil {
		sn.clock = systemClock{}
	}
	if dir == "" {
		return sn, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: snapshot dir: %w", err)
	}
	return sn, nil
}

// shardMet returns the shard's series, or nil when metrics are absent or
// the index is out of the instrumented range.
func (sn *snapshotter) shardMet(shard int) *shardMetrics {
	if sn.met == nil || shard < 0 || shard >= len(sn.met.shards) {
		return nil
	}
	return &sn.met.shards[shard]
}

// countingWriter tracks bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (sn *snapshotter) enabled() bool { return sn.dir != "" }

func (sn *snapshotter) path(shard int) string {
	return filepath.Join(sn.dir, fmt.Sprintf("shard-%04d.snap.json", shard))
}

// save checkpoints one shard's private copy of its miner atomically.
func (sn *snapshotter) save(shard, shards int, miner *core.IncrementalMiner, open []wlog.OpenExecution) error {
	if !sn.enabled() {
		return nil
	}
	start := sn.clock.Now()
	digest, err := modelDigest(miner)
	if err != nil {
		return fmt.Errorf("serve: snapshot shard %d: digest: %w", shard, err)
	}
	snap := shardSnapshot{
		Schema:      ShardSnapshotSchema,
		Shard:       shard,
		Shards:      shards,
		Executions:  miner.Executions(),
		ModelSHA256: digest,
		Miner:       miner.Snapshot(),
		Open:        open,
	}
	f, err := os.CreateTemp(sn.dir, fmt.Sprintf(".shard-%04d-*.tmp", shard))
	if err != nil {
		return fmt.Errorf("serve: snapshot shard %d: %w", shard, err)
	}
	tmp := f.Name()
	cw := &countingWriter{w: f}
	enc := json.NewEncoder(cw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&snap); err == nil {
		err = f.Sync()
	} else {
		// Keep the first failure; the file is doomed either way.
		_ = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("serve: snapshot shard %d: write: %w", shard, err)
	}
	if err := os.Rename(tmp, sn.path(shard)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("serve: snapshot shard %d: publish: %w", shard, err)
	}
	elapsed := sn.clock.Now().Sub(start).Seconds()
	if sm := sn.shardMet(shard); sm != nil {
		sm.snapSaveSec.Observe(elapsed)
		sm.snapSaveB.Observe(float64(cw.n))
	}
	if sn.log != nil {
		sn.log.Info("snapshot saved",
			"shard", shard, "executions", snap.Executions, "open", len(open),
			"bytes", cw.n, "duration_seconds", elapsed)
	}
	return nil
}

// load reads, restores and verifies one shard's checkpoint. A missing file
// returns nils: the shard simply starts empty.
func (sn *snapshotter) load(shard, shards int) (*shardSnapshot, *core.IncrementalMiner, error) {
	if !sn.enabled() {
		return nil, nil, nil
	}
	start := sn.clock.Now()
	data, err := os.ReadFile(sn.path(shard))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("serve: restore shard %d: %w", shard, err)
	}
	var snap shardSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, nil, fmt.Errorf("serve: restore shard %d: decode: %w", shard, err)
	}
	if snap.Schema != ShardSnapshotSchema {
		return nil, nil, fmt.Errorf("serve: restore shard %d: schema %q, want %q", shard, snap.Schema, ShardSnapshotSchema)
	}
	if snap.Shard != shard || snap.Shards != shards {
		return nil, nil, fmt.Errorf("serve: restore shard %d: checkpoint is for shard %d of %d, want shard %d of %d",
			shard, snap.Shard, snap.Shards, shard, shards)
	}
	if snap.Miner == nil {
		return nil, nil, fmt.Errorf("serve: restore shard %d: checkpoint has no miner state", shard)
	}
	miner := core.NewIncrementalMiner()
	if err := miner.RestoreSnapshot(snap.Miner); err != nil {
		return nil, nil, fmt.Errorf("serve: restore shard %d: %w", shard, err)
	}
	digest, err := modelDigest(miner)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: restore shard %d: digest: %w", shard, err)
	}
	if digest != snap.ModelSHA256 {
		return nil, nil, fmt.Errorf("serve: restore shard %d: %w: model digest %s, recorded %s",
			shard, ErrSnapshotIntegrity, digest, snap.ModelSHA256)
	}
	elapsed := sn.clock.Now().Sub(start).Seconds()
	if sm := sn.shardMet(shard); sm != nil {
		sm.snapLoadSec.Observe(elapsed)
		sm.snapLoadB.Observe(float64(len(data)))
	}
	if sn.log != nil {
		sn.log.Info("snapshot restored",
			"shard", shard, "executions", snap.Executions, "open", len(snap.Open),
			"bytes", len(data), "duration_seconds", elapsed)
	}
	return &snap, miner, nil
}
