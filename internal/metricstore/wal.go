package metricstore

// wal.go is the per-shard append-only log behind a durable Store. Every
// mutation (sample, forecast snapshot) is framed as
//
//	uint32 LE payload length | uint32 LE CRC-32C of payload | payload
//
// and appended to the shard's active segment file (wal-<seq>.log inside
// shard-<idx>/). A segment past its size budget is fsynced, closed and
// replaced by seq+1; rotated segments are immutable and eventually
// folded into a snap-<seq>.gob snapshot by the compactor (compact.go).
// Recovery loads the newest snapshot, then replays every newer segment
// frame by frame; a damaged frame — short header, short payload, CRC
// mismatch, the signature of a crash mid-append — ends that segment's
// replay and is counted as torn. Appends after recovery always go to a
// fresh segment, so a torn tail is never appended after.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// SyncPolicy selects when the WAL calls fsync.
type SyncPolicy int

const (
	// SyncRotate flushes buffers after every append and fsyncs only on
	// segment rotation and close: a SIGKILL loses nothing (the OS holds
	// the pages), only power loss can cost the active segment's tail.
	SyncRotate SyncPolicy = iota
	// SyncAlways fsyncs after every append: a Put/PutBatch returns only
	// once its records are on stable storage.
	SyncAlways
)

// ParseSyncPolicy parses the -store-fsync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "rotate":
		return SyncRotate, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("metricstore: unknown fsync policy %q (want rotate or always)", s)
}

const (
	defaultSegmentBytes = 4 << 20
	frameHeaderLen      = 8
	// maxFrameLen bounds a decoded frame length so a corrupt header
	// cannot trigger a giant allocation during replay.
	maxFrameLen = 16 << 20

	recSample   byte = 1
	recForecast byte = 2

	walPrefix  = "wal-"
	walSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".gob"
	metaFile   = "META"
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms that matter.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// shardDir names the per-shard directory under the store root.
func shardDir(root string, idx int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%03d", idx))
}

// loadOrInitMeta reads the store META file recording the shard count a
// directory was created with, writing it on first use. The on-disk
// count wins over the requested one: the key→shard hash must stay
// stable or replay would scatter keys across the wrong shards.
func loadOrInitMeta(root string, shards int) (int, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(root, metaFile)
	raw, err := os.ReadFile(path)
	if err == nil {
		s := strings.TrimSpace(strings.TrimPrefix(string(raw), "shards="))
		n, perr := strconv.Atoi(s)
		if perr != nil || n < 1 || n != ceilPow2(n) {
			return 0, fmt.Errorf("metricstore: corrupt meta file %s: %q", path, raw)
		}
		return n, nil
	}
	if !os.IsNotExist(err) {
		return 0, err
	}
	if err := os.WriteFile(path, []byte(fmt.Sprintf("shards=%d\n", shards)), 0o644); err != nil {
		return 0, err
	}
	return shards, nil
}

// shardState is the in-memory image recovery rebuilds.
type shardState struct {
	samples   map[Key]*column
	forecasts map[Key]ForecastSnapshot
	// byFrame indexes samples by a sample frame's encoded key bytes
	// (both length-prefixed strings), so replay finds a key's column
	// without allocating its strings for every record.
	byFrame map[string]*column
}

// walReplayStats counts what one shard's recovery restored.
type walReplayStats struct {
	segments  int
	samples   int
	forecasts int
	torn      int
}

// wal is one shard's append-only log. Mutating methods are called under
// the owning shard's write lock, so the wal needs no lock of its own;
// rotated segments are immutable and safe for the compactor to read and
// delete concurrently.
type wal struct {
	dir          string
	segmentBytes int64
	policy       SyncPolicy

	seq  uint64 // active segment sequence
	f    *os.File
	bw   *bufio.Writer
	size int64
	// rotated lists closed, not-yet-compacted segment sequences.
	rotated []uint64
	// buf is the reusable frame-encode scratch buffer.
	buf []byte
}

// openWAL opens (or creates) a shard directory: load the newest
// snapshot, replay newer segments, delete segments the snapshot already
// covers, and start a fresh active segment.
func openWAL(dir string, segmentBytes int64, policy SyncPolicy) (*wal, shardState, walReplayStats, error) {
	var state shardState
	var stats walReplayStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, state, stats, err
	}
	segs, snaps, err := scanShardDir(dir)
	if err != nil {
		return nil, state, stats, err
	}
	state = shardState{
		samples:   make(map[Key]*column),
		forecasts: make(map[Key]ForecastSnapshot),
		byFrame:   make(map[string]*column),
	}
	var snapSeq uint64
	if len(snaps) > 0 {
		snapSeq = snaps[len(snaps)-1]
		if err := loadSnapshot(filepath.Join(dir, snapName(snapSeq)), &state); err != nil {
			return nil, state, stats, err
		}
		// Older snapshots are fully shadowed by the newest one.
		for _, sq := range snaps[:len(snaps)-1] {
			os.Remove(filepath.Join(dir, snapName(sq)))
		}
	}
	w := &wal{dir: dir, segmentBytes: segmentBytes, policy: policy}
	maxSeq := snapSeq
	for _, sq := range segs {
		if sq > maxSeq {
			maxSeq = sq
		}
		if sq <= snapSeq {
			// Covered by the snapshot; replaying would be a harmless nop
			// (records are idempotent) but a pointless one.
			os.Remove(filepath.Join(dir, segName(sq)))
			continue
		}
		st, err := replaySegment(filepath.Join(dir, segName(sq)), &state)
		if err != nil {
			return nil, state, stats, err
		}
		stats.segments++
		stats.samples += st.samples
		stats.forecasts += st.forecasts
		stats.torn += st.torn
		w.rotated = append(w.rotated, sq)
	}
	w.seq = maxSeq + 1
	if err := w.openActive(); err != nil {
		return nil, state, stats, err
	}
	return w, state, stats, nil
}

// scanShardDir lists segment and snapshot sequences, ascending. Stray
// .tmp files from a crashed compaction are removed.
func scanShardDir(dir string) (segs, snaps []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, walPrefix) && strings.HasSuffix(name, walSuffix):
			if sq, perr := parseSeq(name, walPrefix, walSuffix); perr == nil {
				segs = append(segs, sq)
			}
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			if sq, perr := parseSeq(name, snapPrefix, snapSuffix); perr == nil {
				snaps = append(snaps, sq)
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return segs, snaps, nil
}

func segName(seq uint64) string  { return fmt.Sprintf("%s%08d%s", walPrefix, seq, walSuffix) }
func snapName(seq uint64) string { return fmt.Sprintf("%s%08d%s", snapPrefix, seq, snapSuffix) }

func parseSeq(name, prefix, suffix string) (uint64, error) {
	return strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
}

// openActive creates the active segment file for w.seq.
func (w *wal) openActive() error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(w.seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	w.bw = bufio.NewWriter(f)
	w.size = 0
	return nil
}

// appendSamples logs one in-order sub-batch, one frame per sample.
// Returns the bytes appended and whether the active segment rotated.
func (w *wal) appendSamples(batch []Sample) (n int64, rotated bool, err error) {
	for i := range batch {
		if err := w.appendSample(batch[i].Target, batch[i].Metric, batch[i].At.UnixNano(), batch[i].Value); err != nil {
			return n, rotated, err
		}
		n += int64(len(w.buf) + frameHeaderLen)
	}
	rotated, err = w.commit()
	return n, rotated, err
}

// appendColumn logs every sample of k's column, one frame per sample,
// exactly as appendSamples would log them as rows.
func (w *wal) appendColumn(k Key, c *column) (n int64, rotated bool, err error) {
	for i := range c.At {
		if err := w.appendSample(k.Target, k.Metric, c.At[i], c.Value[i]); err != nil {
			return n, rotated, err
		}
		n += int64(len(w.buf) + frameHeaderLen)
	}
	rotated, err = w.commit()
	return n, rotated, err
}

// appendSample encodes one sample frame into w.buf and writes it.
func (w *wal) appendSample(target, metric string, at int64, v float64) error {
	w.buf = encodeSample(w.buf[:0], target, metric, at, v)
	return w.appendFrame(w.buf)
}

// appendForecast logs one forecast snapshot (gob payload — snapshots
// are rare and structured, so reflection cost is irrelevant).
func (w *wal) appendForecast(fs ForecastSnapshot) (n int64, rotated bool, err error) {
	var payload bytes.Buffer
	payload.WriteByte(recForecast)
	if err := gob.NewEncoder(&payload).Encode(fs); err != nil {
		return 0, false, err
	}
	if err := w.appendFrame(payload.Bytes()); err != nil {
		return 0, false, err
	}
	n = int64(payload.Len() + frameHeaderLen)
	rotated, err = w.commit()
	return n, rotated, err
}

// appendFrame writes one length+CRC framed record to the buffered
// active segment.
func (w *wal) appendFrame(payload []byte) error {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	w.size += int64(len(payload) + frameHeaderLen)
	return nil
}

// commit makes the appended frames durable per policy and rotates a
// full segment.
func (w *wal) commit() (rotated bool, err error) {
	if err := w.bw.Flush(); err != nil {
		return false, err
	}
	if w.policy == SyncAlways {
		if err := w.f.Sync(); err != nil {
			return false, err
		}
	}
	if w.size < w.segmentBytes {
		return false, nil
	}
	return true, w.rotate()
}

// rotate seals the active segment (fsync — a rotated segment is
// immutable and must be fully on disk before compaction may delete its
// predecessors) and opens seq+1.
func (w *wal) rotate() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.rotated = append(w.rotated, w.seq)
	w.seq++
	return w.openActive()
}

// close flushes, fsyncs and closes the active segment.
func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// reset discards every segment and snapshot and restarts the log at
// sequence 1 — used when Load replaces the repository wholesale.
func (w *wal) reset() error {
	if err := w.close(); err != nil {
		return err
	}
	segs, snaps, err := scanShardDir(w.dir)
	if err != nil {
		return err
	}
	for _, sq := range segs {
		os.Remove(filepath.Join(w.dir, segName(sq)))
	}
	for _, sq := range snaps {
		os.Remove(filepath.Join(w.dir, snapName(sq)))
	}
	w.rotated = nil
	w.seq = 1
	return w.openActive()
}

// encodeSample frames one sample: type byte, uvarint-length strings,
// fixed64 UnixNano and value bits.
func encodeSample(buf []byte, target, metric string, at int64, v float64) []byte {
	buf = append(buf, recSample)
	buf = binary.AppendUvarint(buf, uint64(len(target)))
	buf = append(buf, target...)
	buf = binary.AppendUvarint(buf, uint64(len(metric)))
	buf = append(buf, metric...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(at))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	return buf
}

// sampleFrame is a decoded sample payload. target and metric alias the
// payload; keyBytes is the length-prefixed pair both were read from.
type sampleFrame struct {
	keyBytes       []byte
	target, metric []byte
	at             int64
	value          float64
}

// decodeSample reverses encodeSample (payload without the type byte).
func decodeSample(p []byte) (sampleFrame, error) {
	var f sampleFrame
	if len(p) < 16 {
		return f, fmt.Errorf("bad sample payload length")
	}
	f.keyBytes = p[:len(p)-16]
	q := f.keyBytes
	tl, n := binary.Uvarint(q)
	if n <= 0 || uint64(len(q)-n) < tl {
		return f, fmt.Errorf("bad target length")
	}
	f.target, q = q[n:n+int(tl)], q[n+int(tl):]
	ml, n := binary.Uvarint(q)
	if n <= 0 || uint64(len(q)-n) != ml {
		return f, fmt.Errorf("bad metric length")
	}
	f.metric = q[n:]
	f.at = int64(binary.LittleEndian.Uint64(p[len(p)-16:]))
	f.value = math.Float64frombits(binary.LittleEndian.Uint64(p[len(p)-8:]))
	return f, nil
}

// frameColumn returns the column a decoded sample frame belongs to. A
// key seen before in this recovery is found by its frame bytes alone;
// only a new one allocates its strings.
func (state *shardState) frameColumn(f sampleFrame) *column {
	if c := state.byFrame[string(f.keyBytes)]; c != nil {
		return c
	}
	k := Key{Target: string(f.target), Metric: string(f.metric)}
	c := state.samples[k]
	if c == nil {
		c = &column{}
		state.samples[k] = c
	}
	state.byFrame[string(f.keyBytes)] = c
	return c
}

// replaySegment applies one segment's frames to state, stopping at the
// first damaged frame (torn tail).
func replaySegment(path string, state *shardState) (walReplayStats, error) {
	var st walReplayStats
	f, err := os.Open(path)
	if err != nil {
		return st, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var payload []byte
	for {
		var hdr [frameHeaderLen]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err != io.EOF {
				st.torn++
			}
			return st, nil
		}
		ln := binary.LittleEndian.Uint32(hdr[0:4])
		if ln == 0 || ln > maxFrameLen {
			st.torn++
			return st, nil
		}
		if cap(payload) < int(ln) {
			payload = make([]byte, ln)
		}
		payload = payload[:ln]
		if _, err := io.ReadFull(r, payload); err != nil {
			st.torn++
			return st, nil
		}
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[4:8]) {
			st.torn++
			return st, nil
		}
		switch payload[0] {
		case recSample:
			f, derr := decodeSample(payload[1:])
			if derr != nil {
				st.torn++
				return st, nil
			}
			state.frameColumn(f).insert(f.at, f.value)
			st.samples++
		case recForecast:
			var fs ForecastSnapshot
			if derr := gob.NewDecoder(bytes.NewReader(payload[1:])).Decode(&fs); derr != nil {
				st.torn++
				return st, nil
			}
			state.forecasts[fs.Key] = fs
			st.forecasts++
		default:
			st.torn++
			return st, nil
		}
	}
}

// loadSnapshot decodes a compaction snapshot into state.
func loadSnapshot(path string, state *shardState) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var p persisted
	if err := gob.NewDecoder(bufio.NewReader(f)).Decode(&p); err != nil {
		return fmt.Errorf("metricstore: snapshot %s: %w", path, err)
	}
	cols, err := p.columns()
	if err != nil {
		return fmt.Errorf("metricstore: snapshot %s: %w", path, err)
	}
	state.samples = cols
	if p.Forecasts != nil {
		state.forecasts = p.Forecasts
	}
	return nil
}
