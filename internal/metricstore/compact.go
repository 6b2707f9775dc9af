package metricstore

// compact.go folds rotated WAL segments into per-shard snapshots and
// applies the retention horizon. A compaction pass copies a shard's
// state under its lock, encodes the snapshot outside every lock, then
// atomically renames it into place and deletes the segments it covers;
// a crash at any point leaves either the old segments or the new
// snapshot (replay is idempotent, so overlap is harmless).

import (
	"bufio"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// compactLoop is the background compactor: one pass per poke (a shard
// rotating its active segment), until Close.
func (s *Store) compactLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.closeCh:
			return
		case <-s.compactCh:
			s.Compact()
		}
	}
}

// pokeCompactor schedules a compaction pass without blocking the
// appender that triggered it.
func (s *Store) pokeCompactor() {
	select {
	case s.compactCh <- struct{}{}:
	default:
	}
}

// Compact runs one synchronous compaction pass over every shard that
// holds rotated WAL segments: apply retention to the in-memory state,
// snapshot it, and delete the covered segments. In-memory stores and
// shards with no rotated segments are left untouched. Exposed so tests
// and operators can force a deterministic pass; the background
// compactor calls it after every rotation.
func (s *Store) Compact() {
	if !s.durable || s.closed.Load() {
		return
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	o := s.observer()
	for _, sh := range s.shards {
		compacted, dropped, err := sh.compact(s.retention)
		if err != nil {
			o.Count("metricstore_wal_errors_total", 1)
			o.Error("compaction failed", "shard", sh.idx, "err", err)
			continue
		}
		if compacted {
			o.Count("metricstore_compactions_total", 1)
			o.Count("metricstore_retention_dropped_samples_total", int64(dropped))
		}
	}
}

// compact snapshots one shard if it has rotated segments. Returns
// whether a snapshot was written and how many samples retention
// dropped.
func (sh *shard) compact(retention time.Duration) (bool, int, error) {
	sh.mu.Lock()
	if sh.wal == nil || len(sh.wal.rotated) == 0 {
		sh.mu.Unlock()
		return false, 0, nil
	}
	dropped := sh.applyRetentionLocked(retention)
	// The snapshot is stamped with the last sealed sequence: it may also
	// contain records from the active segment, which replay then
	// re-applies idempotently — never the reverse (records in sealed
	// segments missing from the snapshot).
	upto := sh.wal.seq - 1
	rotated := append([]uint64(nil), sh.wal.rotated...)
	sh.wal.rotated = nil
	p := persisted{
		Columns:   make(map[Key]*column, len(sh.samples)),
		Forecasts: make(map[Key]ForecastSnapshot, len(sh.forecasts)),
	}
	for k, c := range sh.samples {
		p.Columns[k] = c.clone()
	}
	for k, fs := range sh.forecasts {
		p.Forecasts[k] = fs
	}
	dir := sh.wal.dir
	sh.mu.Unlock()

	if err := writeSnapshot(dir, upto, p); err != nil {
		return false, dropped, err
	}
	for _, sq := range rotated {
		os.Remove(filepath.Join(dir, segName(sq)))
	}
	// Drop snapshots the new one shadows.
	if _, snaps, err := scanShardDir(dir); err == nil {
		for _, sq := range snaps {
			if sq < upto {
				os.Remove(filepath.Join(dir, snapName(sq)))
			}
		}
	}
	return true, dropped, nil
}

// applyRetentionLocked truncates every key's samples older than the
// horizon, measured from that key's newest sample (a quiet series keeps
// its tail instead of aging out against a clock it no longer feeds).
// Called under the shard write lock; 0 keeps everything.
func (sh *shard) applyRetentionLocked(retention time.Duration) int {
	if retention <= 0 {
		return 0
	}
	dropped := 0
	for _, c := range sh.samples {
		if len(c.At) == 0 {
			continue
		}
		last := c.At[len(c.At)-1]
		cutoff := last - int64(retention)
		if cutoff > last { // wrapped below the column range
			cutoff = math.MinInt64
		}
		i, _ := slices.BinarySearch(c.At, cutoff)
		if i == 0 {
			continue
		}
		dropped += i
		// Copy the kept tail so the dropped head's memory is freed.
		c.At = slices.Clone(c.At[i:])
		c.Value = slices.Clone(c.Value[i:])
	}
	return dropped
}

// writeSnapshot encodes p to snap-<seq>.gob via a temp file + rename so
// a crash mid-write never leaves a half snapshot under the real name.
func writeSnapshot(dir string, seq uint64, p persisted) error {
	tmp, err := os.CreateTemp(dir, snapName(seq)+".*.tmp")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(tmp)
	if err := gob.NewEncoder(bw).Encode(p); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, snapName(seq)))
}
