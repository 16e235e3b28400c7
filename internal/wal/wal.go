// Package wal is the engine's write-ahead log: an append-only,
// length-prefixed, CRC32C-checksummed record log with size-rolled
// segments, configurable fsync policies and compacted checkpoints.
//
// The log stores opaque payloads — the record semantics (graph
// mutations, catalog registrations) belong to the caller. What the
// package guarantees is the durability contract:
//
//   - A record is *committed* once Append returns with the sync policy
//     satisfied. Replay delivers every committed record, in order.
//   - A torn tail — bytes of a record that was being appended when the
//     process died — is detected by the length/checksum framing and
//     truncated on Open. Replay never runs past a bad checksum, and
//     never drops a record that a later good record follows (that is
//     corruption, not a torn tail, and fails loudly instead).
//   - Corruption anywhere before the tail quarantines the segment
//     (renamed with a ".corrupt" suffix) and surfaces a *CorruptError;
//     the log refuses to guess around missing committed data.
//
// Checkpoints compact the log: the caller materialises its state into
// a staging directory (BeginCheckpoint), and CommitCheckpoint makes it
// the durable recovery root — watermark file, fsyncs, an atomic rename
// into place, and a CURRENT pointer flip, in that order — then deletes
// the segments and older checkpoints it supersedes. Recovery is
// CurrentCheckpoint (load the state files) + ReplayFrom (apply the
// tail). A crash at any byte of this protocol leaves either the old or
// the new checkpoint current, never a half of each.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gcore/internal/faultinject"
)

// Segment framing. Every segment starts with an 8-byte magic; records
// follow back to back as
//
//	u32le payload length | u32le CRC32C(payload) | payload
//
// A record is valid iff its length is in (0, MaxRecord] and the
// checksum matches. Zeroed bytes (a preallocated or torn tail) fail
// the length check, a half-written payload fails the checksum, so the
// first invalid position is where replay stops.
const (
	headerLen    = 8
	recHeaderLen = 8
	// MaxRecord bounds one record's payload; a length above it is
	// treated as framing corruption, not an allocation request.
	MaxRecord = 1 << 30
)

var magic = [headerLen]byte{'G', 'C', 'W', 'A', 'L', '0', '0', '1'}

// castagnoli is the CRC32C polynomial table (the checksum used by
// iSCSI and most storage formats; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when appended records are fsynced to disk.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every record: a successful Append is a
	// committed record. The default, and the slowest.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs when at least Options.Interval has elapsed
	// since the previous fsync; records appended in between are
	// committed only by the next sync (or checkpoint).
	SyncInterval
	// SyncOnCheckpoint never fsyncs on Append: records become durable
	// only through checkpoints (and Close). The fastest policy; a crash
	// loses the tail since the last checkpoint.
	SyncOnCheckpoint
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOnCheckpoint:
		return "on-checkpoint"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Options configures a Log.
type Options struct {
	// SegmentSize is the roll threshold: an append that would grow the
	// current segment past it starts a new segment first. Default 4 MiB.
	SegmentSize int64
	// Policy selects the fsync policy. Default SyncAlways.
	Policy SyncPolicy
	// Interval is the SyncInterval period. Default 100ms.
	Interval time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 4 << 20
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	return o
}

// Watermark is a position in the log: the byte offset Off inside
// segment Seg at which the *next* record would start. Checkpoints
// store the watermark they were taken at; recovery replays from it.
type Watermark struct {
	Seg uint64 `json:"segment"`
	Off int64  `json:"offset"`
}

// Less orders watermarks by log position.
func (w Watermark) Less(o Watermark) bool {
	return w.Seg < o.Seg || (w.Seg == o.Seg && w.Off < o.Off)
}

func (w Watermark) String() string { return fmt.Sprintf("%d:%d", w.Seg, w.Off) }

// CorruptError reports framing or checksum corruption in committed log
// state — data that recovery needs but cannot trust. Torn tails are
// not corruption (they are truncated silently); a CorruptError means a
// segment before the tail, a checkpoint, or the segment sequence
// itself is damaged.
type CorruptError struct {
	// Path is the damaged file (its original name, even if it was
	// quarantined).
	Path string
	// Offset is the byte position of the damage, where applicable.
	Offset int64
	// Reason describes the damage.
	Reason string
	// Quarantined is the path the damaged file was renamed to, or ""
	// if it was left in place (read-only replay).
	Quarantined string
}

func (e *CorruptError) Error() string {
	msg := fmt.Sprintf("wal: corrupt %s at offset %d: %s", e.Path, e.Offset, e.Reason)
	if e.Quarantined != "" {
		msg += " (quarantined as " + filepath.Base(e.Quarantined) + ")"
	}
	return msg
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = fmt.Errorf("wal: log is closed")

// Stats are a log's lifetime counters, exposed through the engine's
// Metrics.
type Stats struct {
	Appends       int64 // committed Append calls
	AppendedBytes int64 // payload + framing bytes appended
	Syncs         int64 // fsync calls on segment files
	Rolls         int64 // segment rolls
	Checkpoints   int64 // committed checkpoints
	Replayed      int64 // records delivered by ReplayFrom
	TornTruncated int64 // torn-tail truncations performed by Open
}

// Log is an open write-ahead log directory. Safe for concurrent use;
// appends are serialised.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File // current segment
	seg      uint64   // current segment sequence number
	off      int64    // current segment size
	lastSync time.Time
	closed   bool
	// broken is set when the log's on-disk state could not be restored
	// after a failed append (the uncommitted bytes may linger); every
	// later append fails with it, forcing a reopen (which re-truncates).
	broken error

	appends, appendedBytes, syncs, rolls, checkpoints, replayed, torn atomic.Int64
}

func segName(seq uint64) string { return fmt.Sprintf("%016d.wal", seq) }

// segSeq parses a segment file name; ok is false for other files.
func segSeq(name string) (uint64, bool) {
	if !strings.HasSuffix(name, ".wal") || len(name) != 16+4 {
		return 0, false
	}
	n, err := strconv.ParseUint(name[:16], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// segments lists the segment sequence numbers in dir, ascending.
func segments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, ent := range ents {
		if seq, ok := segSeq(ent.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Open opens (creating if needed) the log directory. It garbage-
// collects checkpoint staging debris, truncates a torn tail off the
// last segment, and deletes segments already compacted into the
// current checkpoint. The returned log appends after the last
// committed record.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, lastSync: time.Now()}
	if err := l.gcCheckpoints(); err != nil {
		return nil, err
	}
	seqs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	// Drop a torn roll: a trailing segment too short to hold its header
	// was being created when the process died; no record can be in it.
	for len(seqs) > 0 {
		last := seqs[len(seqs)-1]
		fi, err := os.Stat(filepath.Join(dir, segName(last)))
		if err != nil {
			return nil, err
		}
		if fi.Size() >= headerLen {
			break
		}
		if err := os.Remove(filepath.Join(dir, segName(last))); err != nil {
			return nil, err
		}
		seqs = seqs[:len(seqs)-1]
	}
	if len(seqs) == 0 {
		// A checkpoint's watermark segment is never compacted away, so
		// a checkpoint with no segments means committed data was lost.
		if _, wm, err := l.currentCheckpointLocked(); err == nil && wm.Seg > 0 {
			return nil, &CorruptError{
				Path:   filepath.Join(dir, segName(wm.Seg)),
				Reason: "checkpoint watermark segment missing",
			}
		}
		if err := l.createSegment(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Open the last segment and truncate its torn tail, if any.
	last := seqs[len(seqs)-1]
	path := filepath.Join(dir, segName(last))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := checkSegmentHeader(f, path); err != nil {
		f.Close()
		return nil, err
	}
	end, tornAt, err := scanSegment(f, nil)
	if err != nil {
		f.Close()
		return nil, err
	}
	if tornAt >= 0 {
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		l.torn.Add(1)
	}
	if _, err := f.Seek(end, 0); err != nil {
		f.Close()
		return nil, err
	}
	l.f, l.seg, l.off = f, last, end
	// Compaction GC: segments fully below the current checkpoint's
	// watermark are no longer needed for recovery. (Deletion normally
	// happens at CommitCheckpoint; this sweeps up after a crash between
	// the CURRENT flip and the deletes.)
	if _, wm, err := l.currentCheckpointLocked(); err == nil {
		for _, seq := range seqs {
			if seq < wm.Seg {
				if err := os.Remove(filepath.Join(dir, segName(seq))); err != nil && !os.IsNotExist(err) {
					return nil, err
				}
			}
		}
	}
	return l, nil
}

// createSegment starts segment seq and makes it current. Callers hold
// l.mu (or are initialising).
func (l *Log) createSegment(seq uint64) error {
	path := filepath.Join(l.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(magic[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.seg, l.off = f, seq, headerLen
	return nil
}

// checkSegmentHeader validates the magic of an open segment file.
func checkSegmentHeader(f *os.File, path string) error {
	var hdr [headerLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return &CorruptError{Path: path, Offset: 0, Reason: "unreadable segment header"}
	}
	if hdr != magic {
		return &CorruptError{Path: path, Offset: 0, Reason: "bad segment magic"}
	}
	return nil
}

// scanSegment walks the records of a segment from the header on,
// calling fn (when non-nil) with each valid payload. It returns the
// offset after the last valid record, and tornAt = the offset of the
// first invalid byte (-1 if the segment ends cleanly). The payload
// passed to fn is a fresh copy the callee may keep.
func scanSegment(f *os.File, fn func(payload []byte, start int64) error) (end int64, tornAt int64, err error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, -1, err
	}
	size := fi.Size()
	off := int64(headerLen)
	var hdr [recHeaderLen]byte
	for {
		if off == size {
			return off, -1, nil // clean end
		}
		if off+recHeaderLen > size {
			return off, off, nil // torn record header
		}
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			return 0, -1, err
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > MaxRecord {
			return off, off, nil // zeroed or garbage length: torn
		}
		if off+recHeaderLen+int64(length) > size {
			return off, off, nil // torn payload
		}
		payload := make([]byte, length)
		if _, err := f.ReadAt(payload, off+recHeaderLen); err != nil {
			return 0, -1, err
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return off, off, nil // checksum mismatch: torn (or corrupt — the caller decides by position)
		}
		if fn != nil {
			if err := fn(payload, off); err != nil {
				return off, -1, err
			}
		}
		off += recHeaderLen + int64(length)
	}
}

// Append writes one record. On return with a nil error the record is
// appended (and, under SyncAlways, committed); the returned watermark
// is the log position after it. On any failure the log restores its
// on-disk state to the previous watermark — a failed append is never
// replayed — or, if even that fails, poisons the log so the caller
// must reopen (which re-truncates). Appends are serialised by l.mu,
// and each applies the sync policy before it returns.
func (l *Log) Append(payload []byte) (Watermark, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Watermark{}, ErrClosed
	}
	if l.broken != nil {
		return Watermark{}, l.broken
	}
	if len(payload) == 0 {
		return Watermark{}, fmt.Errorf("wal: empty record")
	}
	if len(payload) > MaxRecord {
		return Watermark{}, fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(payload))
	}
	if err := faultinject.Check(faultinject.SiteWALAppend); err != nil {
		return Watermark{}, fmt.Errorf("wal: append to %s: %w", segName(l.seg), err)
	}
	recLen := int64(recHeaderLen + len(payload))
	if l.off+recLen > l.opts.SegmentSize && l.off > headerLen {
		if err := l.rollLocked(); err != nil {
			return Watermark{}, err
		}
	}
	buf := make([]byte, recLen)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[recHeaderLen:], payload)
	start := l.off
	if err := faultinject.Check(faultinject.SiteWALShortWrite); err != nil {
		// Simulated torn write: leave half the record on disk, fail the
		// append, and restore the pre-append state like any I/O error.
		l.f.Write(buf[:len(buf)/2])
		l.failAppend(start)
		return Watermark{}, fmt.Errorf("wal: short write to %s: %w", segName(l.seg), err)
	}
	if _, err := l.f.Write(buf); err != nil {
		l.failAppend(start)
		return Watermark{}, fmt.Errorf("wal: append to %s: %w", segName(l.seg), err)
	}
	l.off += recLen
	if l.opts.Policy == SyncAlways || (l.opts.Policy == SyncInterval && time.Since(l.lastSync) >= l.opts.Interval) {
		if err := l.syncLocked(); err != nil {
			l.failAppend(start)
			return Watermark{}, err
		}
	}
	l.appends.Add(1)
	l.appendedBytes.Add(recLen)
	return Watermark{Seg: l.seg, Off: l.off}, nil
}

// failAppend restores the segment to offset start after a failed
// append, so the partial (or unsynced) record can never be replayed.
// If restoration itself fails the log is poisoned.
func (l *Log) failAppend(start int64) {
	if err := l.f.Truncate(start); err != nil {
		l.broken = fmt.Errorf("wal: log broken: failed append could not be truncated: %w", err)
		return
	}
	if _, err := l.f.Seek(start, 0); err != nil {
		l.broken = fmt.Errorf("wal: log broken: %w", err)
		return
	}
	if err := l.f.Sync(); err != nil {
		l.broken = fmt.Errorf("wal: log broken: truncation of failed append not durable: %w", err)
		return
	}
	l.off = start
}

// rollLocked finishes the current segment and starts the next one.
func (l *Log) rollLocked() error {
	if err := faultinject.Check(faultinject.SiteWALRoll); err != nil {
		return fmt.Errorf("wal: rolling %s: %w", segName(l.seg), err)
	}
	// The finished segment must be durable before records land in the
	// next one, or replay could see new records after a lost tail.
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.f = nil
	if err := l.createSegment(l.seg + 1); err != nil {
		return fmt.Errorf("wal: creating segment %d: %w", l.seg+1, err)
	}
	l.rolls.Add(1)
	return nil
}

func (l *Log) syncLocked() error {
	if err := faultinject.Check(faultinject.SiteWALSync); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", segName(l.seg), err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", segName(l.seg), err)
	}
	l.syncs.Add(1)
	l.lastSync = time.Now()
	return nil
}

// Sync forces an fsync of the current segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.broken != nil {
		return l.broken
	}
	return l.syncLocked()
}

// Watermark returns the position after the last appended record.
func (l *Log) Watermark() Watermark {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Watermark{Seg: l.seg, Off: l.off}
}

// Close syncs and closes the log. Appends after Close fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	var firstErr error
	if l.broken == nil {
		if err := l.syncLocked(); err != nil {
			firstErr = err
		}
	}
	if err := l.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	l.f = nil
	return firstErr
}

// Stats returns the log's lifetime counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:       l.appends.Load(),
		AppendedBytes: l.appendedBytes.Load(),
		Syncs:         l.syncs.Load(),
		Rolls:         l.rolls.Load(),
		Checkpoints:   l.checkpoints.Load(),
		Replayed:      l.replayed.Load(),
		TornTruncated: l.torn.Load(),
	}
}

// ReplayFrom delivers every committed record at or after the
// watermark, in append order. A damaged segment before the tail is
// quarantined (renamed *.corrupt) and reported as a *CorruptError; a
// torn tail on the last segment simply ends the replay (Open has
// already truncated it for this log). fn errors abort the replay.
func (l *Log) ReplayFrom(from Watermark, fn func(payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	dir, lastSeg := l.dir, l.seg
	l.mu.Unlock()
	n, err := replay(dir, lastSeg, from, fn, true)
	l.replayed.Add(n)
	return err
}

// Replay is the read-only form of ReplayFrom for a log directory that
// is not (and will not be) opened: it tolerates a torn tail on the
// last segment without truncating anything, and reports — without
// quarantining — corruption before it. Tools and crash-simulation
// tests use it to enumerate the surviving committed prefix.
func Replay(dir string, from Watermark, fn func(payload []byte) error) error {
	seqs, err := segments(dir)
	if err != nil {
		return err
	}
	var lastSeg uint64
	if len(seqs) > 0 {
		lastSeg = seqs[len(seqs)-1]
	}
	_, err = replay(dir, lastSeg, from, fn, false)
	return err
}

func replay(dir string, lastSeg uint64, from Watermark, fn func(payload []byte) error, quarantine bool) (int64, error) {
	seqs, err := segments(dir)
	if err != nil {
		return 0, err
	}
	if len(seqs) == 0 {
		if from.Seg == 0 {
			return 0, nil
		}
		return 0, &CorruptError{
			Path:   filepath.Join(dir, segName(from.Seg)),
			Reason: "watermark segment missing",
		}
	}
	startSeg := from.Seg
	if startSeg == 0 {
		startSeg = seqs[0]
	} else {
		present := false
		for _, seq := range seqs {
			present = present || seq == from.Seg
		}
		if !present {
			return 0, &CorruptError{
				Path:   filepath.Join(dir, segName(from.Seg)),
				Reason: "watermark segment missing",
			}
		}
	}
	var replayed int64
	prev := uint64(0)
	for _, seq := range seqs {
		if seq < startSeg {
			continue
		}
		if prev != 0 && seq != prev+1 {
			return replayed, &CorruptError{
				Path:   filepath.Join(dir, segName(prev+1)),
				Reason: fmt.Sprintf("missing segment %d (sequence jumps to %d)", prev+1, seq),
			}
		}
		prev = seq
		isLast := seq == lastSeg
		n, err := replaySegment(dir, seq, from, isLast, fn, quarantine)
		replayed += n
		if err != nil {
			return replayed, err
		}
	}
	return replayed, nil
}

func replaySegment(dir string, seq uint64, from Watermark, isLast bool, fn func(payload []byte) error, quarantine bool) (int64, error) {
	path := filepath.Join(dir, segName(seq))
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := checkSegmentHeader(f, path); err != nil {
		if ce, ok := err.(*CorruptError); ok && quarantine {
			ce.Quarantined = quarantinePath(path)
			os.Rename(path, ce.Quarantined)
		}
		return 0, err
	}
	start := int64(headerLen)
	if seq == from.Seg && from.Off > start {
		start = from.Off
	}
	var n int64
	_, tornAt, err := scanSegment(f, func(payload []byte, off int64) error {
		if off < start {
			return nil
		}
		n++
		return fn(payload)
	})
	if err != nil {
		return n, err
	}
	if tornAt >= 0 && !isLast {
		// Invalid bytes with committed segments after them: that is
		// corruption of committed data, not a torn tail.
		ce := &CorruptError{Path: path, Offset: tornAt, Reason: "bad record before the log tail"}
		if quarantine {
			ce.Quarantined = quarantinePath(path)
			os.Rename(path, ce.Quarantined)
		}
		return n, ce
	}
	return n, nil
}

// quarantinePath picks a non-clobbering *.corrupt name for a damaged
// file.
func quarantinePath(path string) string {
	q := path + ".corrupt"
	for i := 1; ; i++ {
		if _, err := os.Stat(q); os.IsNotExist(err) {
			return q
		}
		q = fmt.Sprintf("%s.corrupt.%d", path, i)
	}
}

// syncDir fsyncs a directory so renames and creates inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
