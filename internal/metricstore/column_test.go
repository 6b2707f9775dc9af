package metricstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/timeseries"
)

// rowImage is the gob form Save images and compaction snapshots had
// before the column layout: whole samples per key, no Columns field.
type rowImage struct {
	Samples   map[Key][]Sample
	Forecasts map[Key]ForecastSnapshot
}

// compatRows builds a few keys of sorted row samples whose instants
// carry a non-UTC zone, as a process running in local time wrote them.
func compatRows() map[Key][]Sample {
	zone := time.FixedZone("UTC+2", 2*3600)
	rows := make(map[Key][]Sample)
	for _, k := range []Key{{"cdbm011", "cpu"}, {"cdbm011", "memory"}, {"eu/cdbm012", "logical_iops"}} {
		for i := 0; i < 200; i++ {
			rows[k] = append(rows[k], Sample{
				Target: k.Target, Metric: k.Metric,
				At:    t0.Add(time.Duration(i) * 15 * time.Minute).In(zone),
				Value: float64(i%23) + float64(len(k.Metric)),
			})
		}
	}
	return rows
}

// sameAsRows fails unless s holds exactly rows: the same keys, counts,
// raw samples (same instants, now in UTC) and hourly series as a store
// the rows were put into.
func sameAsRows(t *testing.T, s *Store, rows map[Key][]Sample) {
	t.Helper()
	ref := New()
	for _, list := range rows {
		ref.PutBatch(list)
	}
	if got, want := fmt.Sprint(s.Keys()), fmt.Sprint(ref.Keys()); got != want {
		t.Fatalf("keys = %s, want %s", got, want)
	}
	for k, list := range rows {
		if s.Count(k) != len(list) {
			t.Fatalf("%s: count %d, want %d", k, s.Count(k), len(list))
		}
		raw := s.Raw(k)
		for i, smp := range list {
			got := raw[i]
			if got.Target != k.Target || got.Metric != k.Metric || !got.At.Equal(smp.At) ||
				got.At.Location() != time.UTC || got.Value != smp.Value {
				t.Fatalf("%s[%d] = %+v, want %+v in UTC", k, i, got, smp)
			}
		}
		from, to := t0.Add(-time.Hour), t0.Add(60*time.Hour)
		got, err := s.Series(k, timeseries.Hourly, from, to)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Series(k, timeseries.Hourly, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSeries(got.Values, want.Values) {
			t.Fatalf("%s: series %v, want %v", k, got.Values, want.Values)
		}
	}
}

// Images and snapshots written in the row form load into the columns.
func TestRowFormImagesLoadIntoColumns(t *testing.T) {
	rows := compatRows()
	var img bytes.Buffer
	if err := gob.NewEncoder(&img).Encode(rowImage{Samples: rows}); err != nil {
		t.Fatal(err)
	}
	snap := append([]byte(nil), img.Bytes()...)

	s := New()
	if err := s.Load(&img); err != nil {
		t.Fatal(err)
	}
	sameAsRows(t, s, rows)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, metaFile), []byte("shards=1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(shardDir(dir, 0), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shardDir(dir, 0), snapName(1)), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	d := openDurable(t, dir, Options{})
	defer d.Close()
	sameAsRows(t, d, rows)
}

// A column whose time and value lengths differ, or whose instants are
// not strictly increasing, is a damaged image, not one to serve from.
func TestLoadRejectsMalformedColumns(t *testing.T) {
	k := Key{Target: "d", Metric: "m"}
	for name, c := range map[string]*column{
		"lengths":   {At: []int64{1, 2}, Value: []float64{1}},
		"unordered": {At: []int64{2, 1}, Value: []float64{1, 2}},
		"duplicate": {At: []int64{1, 1}, Value: []float64{1, 2}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(persisted{Columns: map[Key]*column{k: c}}); err != nil {
			t.Fatal(err)
		}
		if err := New().Load(&buf); err == nil {
			t.Errorf("%s: malformed column loaded without error", name)
		}
	}
}

// The repository holds a stored sample in its two columns plus append
// slack; the row layout (about 105 B a sample) must not come back.
func TestColumnFootprintPerSample(t *testing.T) {
	const keys, perKey = 64, 4096
	names := make([]Key, keys)
	for i := range names {
		names[i] = Key{Target: fmt.Sprintf("cdbm%03d", i/4), Metric: fmt.Sprintf("m%d", i%4)}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	s := New()
	batch := make([]Sample, keys)
	for i := 0; i < perKey; i++ {
		at := t0.Add(time.Duration(i) * 15 * time.Minute)
		for j, k := range names {
			batch[j] = Sample{Target: k.Target, Metric: k.Metric, At: at, Value: float64(i)}
		}
		s.PutBatch(batch)
	}
	batch = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)

	perSample := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (keys * perKey)
	t.Logf("%.1f B of live heap per stored sample", perSample)
	if perSample > 24 {
		t.Fatalf("%.1f B of live heap per stored sample, want at most 24", perSample)
	}
}

// walFrame frames one payload as the WAL does.
func walFrame(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
	return append(out, payload...)
}

// fuzzPrefix builds n valid sample frames over a few keys, out of time
// order and with repeated instants, and the samples they hold.
func fuzzPrefix(n int) ([]byte, []Sample) {
	var seg []byte
	samples := make([]Sample, n)
	for i := range samples {
		samples[i] = Sample{
			Target: fmt.Sprintf("cdbm%03d", i%3), Metric: []string{"cpu", "memory"}[i%2],
			At:    t0.Add(time.Duration((i*7)%11) * 15 * time.Minute),
			Value: float64(i) - 0.5,
		}
		s := samples[i]
		seg = append(seg, walFrame(encodeSample(nil, s.Target, s.Metric, s.At.UnixNano(), s.Value))...)
	}
	return seg, samples
}

// openSegment opens a one-shard durable store whose only WAL segment
// holds seg.
func openSegment(t *testing.T, seg []byte) *Store {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, metaFile), []byte("shards=1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(shardDir(dir, 0), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shardDir(dir, 0), segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s
}

// damageFirstFrame makes garbage unable to start with a valid frame:
// when its first eight bytes frame a payload that fits, the CRC field
// is set to one the payload does not match.
func damageFirstFrame(garbage []byte) []byte {
	g := append([]byte(nil), garbage...)
	if len(g) < frameHeaderLen {
		return g
	}
	ln := binary.LittleEndian.Uint32(g[0:4])
	if ln == 0 || ln > maxFrameLen || uint64(len(g)-frameHeaderLen) < uint64(ln) {
		return g
	}
	crc := crc32.Checksum(g[frameHeaderLen:frameHeaderLen+int(ln)], crcTable)
	binary.LittleEndian.PutUint32(g[4:8], ^crc)
	return g
}

// Replay never panics on arbitrary segment bytes and always leaves
// sorted columns; a valid prefix followed by garbage replays exactly
// the prefix's samples.
func FuzzWALReplay(f *testing.F) {
	valid, _ := fuzzPrefix(2)
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), []byte("torn!"))
	f.Add(uint8(5), valid)
	f.Add(uint8(1), walFrame([]byte{recSample, 0x05, 'a'}))
	f.Add(uint8(2), walFrame([]byte{recForecast, 0xff}))
	f.Add(uint8(4), []byte{0x40, 0, 0, 0, 0xef, 0xbe, 0xad, 0xde})
	f.Fuzz(func(t *testing.T, n uint8, garbage []byte) {
		s := openSegment(t, garbage)
		total := 0
		for _, k := range s.Keys() {
			raw := s.Raw(k)
			for i := 1; i < len(raw); i++ {
				if !raw[i].At.After(raw[i-1].At) {
					t.Fatalf("%s: samples %d and %d out of order", k, i-1, i)
				}
			}
			total += len(raw)
		}
		if rec := s.Recovered(); total > rec.Samples || rec.Torn > 1 {
			t.Fatalf("holds %d samples after replay %+v", total, rec)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		prefix, samples := fuzzPrefix(int(n % 64))
		tail := damageFirstFrame(garbage)
		s = openSegment(t, append(prefix, tail...))
		defer s.Close()
		want := New()
		want.PutBatch(samples)
		if got, exp := fmt.Sprint(s.Keys()), fmt.Sprint(want.Keys()); got != exp {
			t.Fatalf("keys %s, want %s", got, exp)
		}
		for _, k := range want.Keys() {
			g, w := s.Raw(k), want.Raw(k)
			if len(g) != len(w) {
				t.Fatalf("%s: %d samples, want %d", k, len(g), len(w))
			}
			for i := range w {
				if g[i].Target != w[i].Target || g[i].Metric != w[i].Metric ||
					!g[i].At.Equal(w[i].At) || g[i].Value != w[i].Value {
					t.Fatalf("%s[%d] = %+v, want %+v", k, i, g[i], w[i])
				}
			}
		}
		rec := s.Recovered()
		if wantTorn := min(len(tail), 1); rec.Samples != len(samples) || rec.Torn != wantTorn {
			t.Fatalf("replay %+v, want %d samples and %d torn", rec, len(samples), wantTorn)
		}
	})
}
