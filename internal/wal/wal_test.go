package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gcore/internal/faultinject"
)

func mustOpen(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func collect(t *testing.T, l *Log, from Watermark) []string {
	t.Helper()
	var got []string
	if err := l.ReplayFrom(from, func(p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	var want []string
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("record-%02d", i)
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	got := collect(t, l, Watermark{})
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen delivers the same records.
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	got = collect(t, l2, Watermark{})
	if len(got) != len(want) {
		t.Fatalf("after reopen: replayed %d records, want %d", len(got), len(want))
	}
}

func TestSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record ends up in its own segment.
	l := mustOpen(t, dir, Options{SegmentSize: 32})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{'x'}, 24)); err != nil {
			t.Fatal(err)
		}
	}
	if s := l.Stats(); s.Rolls == 0 {
		t.Fatal("expected segment rolls")
	}
	seqs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 2 {
		t.Fatalf("expected multiple segments, got %v", seqs)
	}
	if got := collect(t, l, Watermark{}); len(got) != 5 {
		t.Fatalf("replayed %d records across segments, want 5", len(got))
	}
	l.Close()
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Simulate a torn append: half a record at the tail.
	path := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [recHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 100)
	binary.LittleEndian.PutUint32(hdr[4:8], 0xdeadbeef)
	f.Write(hdr[:])
	f.Write([]byte("only-part-of-the-payload"))
	f.Close()

	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if s := l2.Stats(); s.TornTruncated != 1 {
		t.Fatalf("TornTruncated = %d, want 1", s.TornTruncated)
	}
	if got := collect(t, l2, Watermark{}); len(got) != 3 {
		t.Fatalf("replayed %d records after torn tail, want 3", len(got))
	}
	// The log appends cleanly after truncation.
	if _, err := l2.Append([]byte("rec3")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l2, Watermark{}); len(got) != 4 || got[3] != "rec3" {
		t.Fatalf("after post-truncation append: %q", got)
	}
}

// TestPowerCutEveryByte is the wal-level power-cut sweep: a recorded
// run is copied and truncated at every byte offset, and the read-only
// Replay must deliver exactly the records that fit entirely below the
// cut — never a partial record, never fewer than the committed prefix.
func TestPowerCutEveryByte(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	var ends []int64 // end offset of each record
	for i := 0; i < 8; i++ {
		wm, err := l.Append([]byte(fmt.Sprintf("payload-%d-%s", i, strings.Repeat("x", i*3))))
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, wm.Off)
	}
	l.Close()
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(headerLen); cut <= int64(len(data)); cut++ {
		want := 0
		for _, end := range ends {
			if end <= cut {
				want++
			}
		}
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, segName(1)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := 0
		if err := Replay(cutDir, Watermark{}, func(p []byte) error {
			got++
			return nil
		}); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got != want {
			t.Fatalf("cut at byte %d: replayed %d records, want %d", cut, got, want)
		}
	}
}

func TestCorruptMiddleSegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentSize: 64})
	for i := 0; i < 6; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{byte('a' + i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	seqs, _ := segments(dir)
	if len(seqs) < 3 {
		t.Fatalf("need 3+ segments, got %v", seqs)
	}
	// Flip a payload byte in the first segment: committed data damaged.
	path := filepath.Join(dir, segName(seqs[0]))
	data, _ := os.ReadFile(path)
	data[headerLen+recHeaderLen+5] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{SegmentSize: 64})
	defer l2.Close()
	err := l2.ReplayFrom(Watermark{}, func(p []byte) error { return nil })
	ce, ok := err.(*CorruptError)
	if !ok {
		t.Fatalf("got %v, want *CorruptError", err)
	}
	if ce.Quarantined == "" {
		t.Fatal("corrupt segment was not quarantined")
	}
	if _, err := os.Stat(ce.Quarantined); err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("damaged segment still in place under its original name")
	}
}

func TestCorruptionNeverReplayedPast(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentSize: 64})
	for i := 0; i < 6; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{byte('a' + i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	seqs, _ := segments(dir)
	path := filepath.Join(dir, segName(seqs[0]))
	data, _ := os.ReadFile(path)
	data[headerLen+recHeaderLen+5] ^= 0xff
	os.WriteFile(path, data, 0o644)
	// Read-only replay reports the damage and delivers nothing from the
	// damaged record on.
	var got []string
	err := Replay(dir, Watermark{}, func(p []byte) error {
		got = append(got, string(p[:1]))
		return nil
	})
	if _, ok := err.(*CorruptError); !ok {
		t.Fatalf("got %v, want *CorruptError", err)
	}
	for _, s := range got {
		if s == "a" {
			t.Fatal("replay delivered the corrupted record")
		}
	}
}

func TestCheckpointCommitReplayFromWatermark(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentSize: 64})
	for i := 0; i < 4; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{byte('a' + i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	stage, err := l.BeginCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stage, "state.json"), []byte(`{"n":4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	wm := l.Watermark()
	if err := l.CommitCheckpoint(stage, wm); err != nil {
		t.Fatal(err)
	}
	// Two records after the checkpoint.
	l.Append([]byte("tail-1"))
	l.Append([]byte("tail-2"))
	dirName, gotWM, ok, err := l.CurrentCheckpoint()
	if err != nil || !ok {
		t.Fatalf("CurrentCheckpoint: %v ok=%v", err, ok)
	}
	if gotWM != wm {
		t.Fatalf("watermark %v, want %v", gotWM, wm)
	}
	if _, err := os.Stat(filepath.Join(dirName, "state.json")); err != nil {
		t.Fatalf("checkpoint state file: %v", err)
	}
	got := collect(t, l, wm)
	if len(got) != 2 || got[0] != "tail-1" || got[1] != "tail-2" {
		t.Fatalf("tail replay: %q", got)
	}
	l.Close()
	// Reopen: segments below the watermark are gone, tail replays.
	l2 := mustOpen(t, dir, Options{SegmentSize: 64})
	defer l2.Close()
	seqs, _ := segments(dir)
	for _, seq := range seqs {
		if seq < wm.Seg {
			t.Fatalf("segment %d below watermark %v survived GC", seq, wm)
		}
	}
	_, gotWM2, ok, err := l2.CurrentCheckpoint()
	if err != nil || !ok || gotWM2 != wm {
		t.Fatalf("after reopen: wm=%v ok=%v err=%v", gotWM2, ok, err)
	}
	if got := collect(t, l2, wm); len(got) != 2 {
		t.Fatalf("tail replay after reopen: %q", got)
	}
}

func TestCheckpointCrashDebrisCollected(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	l.Append([]byte("r1"))
	// A crashed staging directory and a committed-but-unreferenced
	// checkpoint (crash between rename and CURRENT flip).
	if err := os.MkdirAll(filepath.Join(dir, ckptStaging+"zzz"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, ckptName(9)), 0o755); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if _, err := os.Stat(filepath.Join(dir, ckptStaging+"zzz")); !os.IsNotExist(err) {
		t.Fatal("staging debris survived Open")
	}
	if _, err := os.Stat(filepath.Join(dir, ckptName(9))); !os.IsNotExist(err) {
		t.Fatal("unreferenced checkpoint survived Open")
	}
	if got := collect(t, l2, Watermark{}); len(got) != 1 {
		t.Fatalf("replay: %q", got)
	}
}

func TestCorruptCurrentPointer(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	l.Append([]byte("r1"))
	stage, _ := l.BeginCheckpoint()
	os.WriteFile(filepath.Join(stage, "state.json"), []byte("{}"), 0o644)
	if err := l.CommitCheckpoint(stage, l.Watermark()); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := os.WriteFile(filepath.Join(dir, currentFile), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, Options{}) // Open leaves damage in place for inspection
	defer l2.Close()
	_, _, _, err := l2.CurrentCheckpoint()
	if _, ok := err.(*CorruptError); !ok {
		t.Fatalf("got %v, want *CorruptError for corrupt CURRENT", err)
	}
}

func TestSyncPolicies(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Policy: SyncAlways})
	l.Append([]byte("a"))
	l.Append([]byte("b"))
	if s := l.Stats(); s.Syncs != 2 {
		t.Fatalf("SyncAlways: %d syncs after 2 appends", s.Syncs)
	}
	l.Close()

	dir2 := t.TempDir()
	l2 := mustOpen(t, dir2, Options{Policy: SyncOnCheckpoint})
	l2.Append([]byte("a"))
	l2.Append([]byte("b"))
	if s := l2.Stats(); s.Syncs != 0 {
		t.Fatalf("SyncOnCheckpoint: %d syncs on append", s.Syncs)
	}
	// Close commits the tail regardless of policy.
	l2.Close()
	l3 := mustOpen(t, dir2, Options{})
	defer l3.Close()
	if got := collect(t, l3, Watermark{}); len(got) != 2 {
		t.Fatalf("tail lost under SyncOnCheckpoint + Close: %q", got)
	}
}

// Concurrent appenders are serialised by the log: every Append that
// returned nil is replayed.
func TestConcurrentAppendReplayAll(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appends != writers*perWriter {
		t.Fatalf("Appends = %d, want %d", st.Appends, writers*perWriter)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	if err := Replay(dir, Watermark{}, func(p []byte) error {
		got[string(p)] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if key := fmt.Sprintf("w%d-%d", w, i); !got[key] {
				t.Fatalf("committed record %s missing from replay", key)
			}
		}
	}
}

// A failed fsync must fail its append and leave no uncommitted bytes
// for recovery to replay.
func TestSyncFailureRollsBack(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	const committed = 3
	for i := 0; i < committed; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("ok%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	faultinject.Arm()
	faultinject.Set(faultinject.SiteWALSync, faultinject.Action{Err: fmt.Errorf("boom")})
	if _, err := l.Append([]byte("doomed")); err == nil {
		t.Fatal("append with failing fsync returned nil")
	}
	faultinject.Disarm()
	l.Close()
	var got []string
	if err := Replay(dir, Watermark{}, func(p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != committed {
		t.Fatalf("replayed %v, want exactly the %d committed records", got, committed)
	}
	for _, p := range got {
		if p == "doomed" {
			t.Fatal("failed append was replayed")
		}
	}
}

func TestAppendValidation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if _, err := l.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
	l.Close()
	if _, err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("sync after close: %v", err)
	}
}

func TestFrameChecksum(t *testing.T) {
	// The framing constants written by Append are what scanSegment
	// verifies: lock the format (little-endian length, CRC32C).
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	payload := []byte("check-me")
	l.Append(payload)
	l.Close()
	data, _ := os.ReadFile(filepath.Join(dir, segName(1)))
	if !bytes.Equal(data[:headerLen], magic[:]) {
		t.Fatal("bad segment magic")
	}
	if got := binary.LittleEndian.Uint32(data[headerLen : headerLen+4]); got != uint32(len(payload)) {
		t.Fatalf("length field %d, want %d", got, len(payload))
	}
	wantSum := crc32.Checksum(payload, castagnoli)
	if got := binary.LittleEndian.Uint32(data[headerLen+4 : headerLen+8]); got != wantSum {
		t.Fatalf("crc field %x, want %x", got, wantSum)
	}
}

// BenchmarkWALAppend measures the append path: framing, checksum and
// buffered write, without per-record fsync (SyncOnCheckpoint), for a
// 128-byte payload.
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, Options{Policy: SyncOnCheckpoint, SegmentSize: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{'p'}, 128)
	b.SetBytes(int64(len(payload) + recHeaderLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALConcurrentAppend measures committed-append throughput
// under concurrent writers with per-record durability (SyncAlways):
// the appends queue on the log's mutex and each pays its own fsync.
func BenchmarkWALConcurrentAppend(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, Options{Policy: SyncAlways, SegmentSize: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{'p'}, 128)
	b.SetBytes(int64(len(payload) + recHeaderLen))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := l.Append(payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
