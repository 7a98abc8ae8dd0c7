// Package wal implements the per-shard write-ahead log that makes XRPC
// shards durable. The paper's Bulk-RPC/2PC write path already serializes
// every commit as a pending update list fenced by a store.Version — this
// package writes exactly that pair to disk before the commit is
// acknowledged, so a SIGKILL'd peer restarted over the same directory
// recovers its precise pre-crash state.
//
// Layout of a WAL directory:
//
//	wal-00000000.log   segmented record log (rotated at SegmentBytes)
//	wal-00000001.log
//	snap-<version>.snap  full store snapshots bounding replay length
//
// Each segment starts with an 8-byte magic and holds CRC-framed records:
//
//	len   uint32 LE   payload length
//	crc   uint32 LE   IEEE CRC32 of the payload
//	payload:
//	  kind    byte      (prepare | commit | abort)
//	  version int64 LE  (commit: post-commit store version)
//	  qidLen  uint16 LE
//	  qid     bytes
//	  pul     bytes     (serialized <xrpc:pending-updates> XML)
//
// A torn tail — a frame cut short by a crash, or one whose CRC does not
// match — ends the log: everything before it is the durable prefix,
// everything from it on is discarded (and truncated away on Open, so the
// next append starts on a clean frame boundary).
//
// Appends group-commit: concurrent appenders write their frames under
// one lock, then a single leader fsyncs the segment once for the whole
// batch while followers wait — one disk flush amortized over every
// transaction that arrived during the previous flush. An fsync error is
// sticky: a log that cannot make records durable fails every later
// append (fail closed) rather than silently acking lost writes.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Record kinds.
const (
	// RecPrepare marks a transaction's PUL durable before the Prepare
	// ack (the participant's promise survives a crash). Recovery does
	// not replay prepares — the commit record carries the PUL again —
	// but their presence documents in-doubt transactions.
	RecPrepare byte = 1
	// RecCommit carries the applied PUL and the post-commit
	// store.Version. Recovery replays commit records, in order.
	RecCommit byte = 2
	// RecAbort marks a prepared transaction rolled back.
	RecAbort byte = 3
)

// Record is one WAL entry: a transaction identifier, the serialized
// pending update list, and (for commits) the store version the apply
// produced — the same version the 2PC replication fence compares.
type Record struct {
	Kind    byte
	Version int64
	QID     string
	PUL     []byte
}

// segMagic opens every segment file.
var segMagic = []byte("XRPCWAL1")

// frameHeaderLen is the fixed prefix of one frame: length + CRC.
const frameHeaderLen = 8

// maxPayload bounds one record (a decode-sanity cap well above any real
// PUL; a length field past it is treated as a torn tail).
const maxPayload = 1 << 30

// DefaultSegmentBytes rotates segments at 4 MiB — small enough that
// snapshot truncation reclaims space promptly, large enough that
// rotation stays off the commit path.
const DefaultSegmentBytes = 4 << 20

// EncodeRecord renders a record's frame payload (without the len/CRC
// header).
func EncodeRecord(rec *Record) []byte {
	buf := make([]byte, 0, 1+8+2+len(rec.QID)+len(rec.PUL))
	buf = append(buf, rec.Kind)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.Version))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(rec.QID)))
	buf = append(buf, rec.QID...)
	buf = append(buf, rec.PUL...)
	return buf
}

// DecodeRecord parses a frame payload. Every length is bounds-checked:
// adversarial or torn input yields an error, never a panic.
func DecodeRecord(payload []byte) (*Record, error) {
	if len(payload) < 1+8+2 {
		return nil, fmt.Errorf("wal: record payload too short (%d bytes)", len(payload))
	}
	rec := &Record{Kind: payload[0]}
	if rec.Kind < RecPrepare || rec.Kind > RecAbort {
		return nil, fmt.Errorf("wal: unknown record kind %d", rec.Kind)
	}
	rec.Version = int64(binary.LittleEndian.Uint64(payload[1:9]))
	qidLen := int(binary.LittleEndian.Uint16(payload[9:11]))
	if 11+qidLen > len(payload) {
		return nil, fmt.Errorf("wal: qid length %d overruns payload", qidLen)
	}
	rec.QID = string(payload[11 : 11+qidLen])
	if rest := payload[11+qidLen:]; len(rest) > 0 {
		rec.PUL = append([]byte(nil), rest...)
	}
	return rec, nil
}

// appendFrame renders the full frame (header + payload) for a record.
func appendFrame(buf []byte, rec *Record) []byte {
	payload := EncodeRecord(rec)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// scanFrames walks the frames of one segment body (after the magic),
// calling fn for each valid record. It returns the byte offset of the
// end of the valid prefix (relative to the body start): at the first
// torn or corrupt frame the scan stops, and valid counts everything
// before it.
func scanFrames(body []byte, fn func(*Record) error) (valid int, err error) {
	off := 0
	for {
		if off+frameHeaderLen > len(body) {
			return off, nil // clean end or torn header
		}
		n := int(binary.LittleEndian.Uint32(body[off : off+4]))
		crc := binary.LittleEndian.Uint32(body[off+4 : off+8])
		if n <= 0 || n > maxPayload || off+frameHeaderLen+n > len(body) {
			return off, nil // torn length or truncated payload
		}
		payload := body[off+frameHeaderLen : off+frameHeaderLen+n]
		if crc32.ChecksumIEEE(payload) != crc {
			return off, nil // corrupt frame: end of durable prefix
		}
		rec, derr := DecodeRecord(payload)
		if derr != nil {
			return off, nil // framed but unparseable: treat as torn
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return off, err
			}
		}
		off += frameHeaderLen + n
	}
}

// Log is a segmented, group-committed write-ahead log rooted in one
// directory. One Log belongs to one shard replica.
type Log struct {
	dir string
	// SegmentBytes rotates the active segment past this size
	// (DefaultSegmentBytes when zero). Set before concurrent use.
	SegmentBytes int64
	// Metrics, when set, records append/fsync/replay facts. Nil disables.
	Metrics *Metrics

	mu        sync.Mutex
	cond      *sync.Cond
	f         *os.File
	seg       int   // active segment index
	segBytes  int64 // bytes written to the active segment
	nextSeq   uint64
	syncedSeq uint64
	syncing   bool
	err       error // sticky fsync/write failure

	// newest is the highest commit version appended or scanned.
	newest int64
	// segMax[i] is the highest commit version in segment i (rotation
	// and Open fill it; TruncateThrough consults it).
	segMax map[int]int64
	// appended counts bytes appended since the last snapshot/truncate
	// (the snapshot policy trigger).
	appended int64
}

// Open opens (or creates) the log in dir. Existing segments are
// scanned: the valid record prefix is kept, a torn tail on the last
// segment is truncated away so appends resume on a frame boundary, and
// the commit-version bookkeeping (newest, per-segment maxima) is
// rebuilt. Metrics may be nil.
func Open(dir string, m *Metrics) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, Metrics: m, segMax: map[int]int64{}}
	l.cond = sync.NewCond(&l.mu)
	segs, err := l.segments()
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := l.createSegment(0); err != nil {
			return nil, err
		}
		return l, nil
	}
	for i, seg := range segs {
		body, err := readSegment(l.segPath(seg))
		if err != nil {
			return nil, err
		}
		max := int64(0)
		valid, _ := scanFrames(body, func(rec *Record) error {
			if rec.Kind == RecCommit && rec.Version > max {
				max = rec.Version
			}
			return nil
		})
		l.segMax[seg] = max
		if max > l.newest {
			l.newest = max
		}
		if valid < len(body) {
			m.countTorn(1)
			if i != len(segs)-1 {
				return nil, fmt.Errorf("wal: segment %d has a torn tail but is not the last segment", seg)
			}
			if err := os.Truncate(l.segPath(seg), int64(len(segMagic)+valid)); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			body = body[:valid]
		}
		if i == len(segs)-1 {
			f, err := os.OpenFile(l.segPath(seg), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			l.f, l.seg, l.segBytes = f, seg, int64(len(body))
		}
	}
	return l, nil
}

// Dir returns the log's root directory.
func (l *Log) Dir() string { return l.dir }

func (l *Log) segPath(seg int) string {
	return filepath.Join(l.dir, fmt.Sprintf("wal-%08d.log", seg))
}

// segments lists existing segment indexes in ascending order.
func (l *Log) segments() ([]int, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []int
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "wal-%08d.log", &n); err == nil {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// readSegment returns the segment body (after the magic), validating
// the magic. A file shorter than the magic is treated as empty (a crash
// between create and the magic write).
func readSegment(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if len(data) < len(segMagic) {
		return nil, nil
	}
	if string(data[:len(segMagic)]) != string(segMagic) {
		return nil, fmt.Errorf("wal: %s: bad segment magic", filepath.Base(path))
	}
	return data[len(segMagic):], nil
}

// createSegment makes segment seg the active file (magic written and
// synced, so a later torn-tail scan never mistakes a half-written magic
// for records).
func (l *Log) createSegment(seg int) error {
	f, err := os.OpenFile(l.segPath(seg), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f, l.seg, l.segBytes = f, seg, 0
	return nil
}

func (l *Log) segmentBytes() int64 {
	if l.SegmentBytes > 0 {
		return l.SegmentBytes
	}
	return DefaultSegmentBytes
}

// Append writes the record and returns once it is durable (fsync'd).
// Concurrent appenders share flushes: whoever arrives while no sync is
// in flight becomes the leader and fsyncs every frame written so far;
// the rest wait on the condition variable. The error of a failed flush
// is sticky — once the log cannot persist, every later Append fails.
func (l *Log) Append(rec *Record) error {
	start := time.Now()
	seq, err := l.Enqueue(rec)
	if err != nil {
		return err
	}
	if err := l.WaitDurable(seq); err != nil {
		return err
	}
	l.Metrics.observeAppendLatency(time.Since(start))
	return nil
}

// Enqueue writes the record's frame to the active segment without
// waiting for a flush, returning a ticket for WaitDurable. Callers that
// must keep the log in apply order write the frame while still holding
// their commit lock (Enqueue is cheap — no disk flush) and wait for
// durability after releasing it, so concurrent transactions share one
// group-commit fsync without their records ever reordering.
func (l *Log) Enqueue(rec *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	frame := appendFrame(nil, rec)
	// rotation is skipped while a group-commit leader holds the active
	// file for fsync (closing it under the leader would race); the next
	// append past the threshold rotates instead
	if l.segBytes+int64(len(frame)) > l.segmentBytes() && l.segBytes > 0 && !l.syncing {
		if err := l.rotateLocked(); err != nil {
			l.err = err
			l.cond.Broadcast()
			return 0, err
		}
	}
	if _, err := l.f.Write(frame); err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
		l.cond.Broadcast()
		return 0, l.err
	}
	l.segBytes += int64(len(frame))
	l.appended += int64(len(frame))
	if rec.Kind == RecCommit {
		if rec.Version > l.newest {
			l.newest = rec.Version
		}
		if rec.Version > l.segMax[l.seg] {
			l.segMax[l.seg] = rec.Version
		}
	}
	l.nextSeq++
	l.Metrics.countAppend(rec.Kind)
	return l.nextSeq, nil
}

// WaitDurable blocks until a flush covers the Enqueue ticket seq,
// leading one group-commit fsync whenever none is in flight.
func (l *Log) WaitDurable(seq uint64) error {
	l.mu.Lock()
	for l.syncedSeq < seq && l.err == nil {
		if !l.syncing {
			l.syncing = true
			f := l.f
			target := l.nextSeq // every frame written so far is in f or an already-synced predecessor
			l.mu.Unlock()
			fsyncStart := time.Now()
			err := f.Sync()
			l.Metrics.observeFsync(time.Since(fsyncStart))
			l.mu.Lock()
			l.syncing = false
			if err != nil && l.err == nil {
				l.err = fmt.Errorf("wal: fsync: %w", err)
			}
			if err == nil && target > l.syncedSeq {
				l.syncedSeq = target
			}
			l.cond.Broadcast()
		} else {
			l.cond.Wait()
		}
	}
	err := l.err
	l.mu.Unlock()
	return err
}

// rotateLocked seals the active segment (fsync, so frames in closed
// segments are always durable before syncedSeq advances past them) and
// opens the next one.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: rotate fsync: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	return l.createSegment(l.seg + 1)
}

// Newest returns the highest commit version the log holds (0 when it
// holds none).
func (l *Log) Newest() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.newest
}

// AppendedBytes reports bytes appended since the last TruncateThrough —
// the snapshot policy's trigger input.
func (l *Log) AppendedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// Replay calls fn for every valid record in log order (all segments,
// oldest first). The torn tail, if any, was already truncated by Open.
func (l *Log) Replay(fn func(*Record) error) error {
	l.mu.Lock()
	segs, err := l.segments()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	for _, seg := range segs {
		body, err := readSegment(l.segPath(seg))
		if err != nil {
			return err
		}
		if _, err := scanFrames(body, fn); err != nil {
			return err
		}
	}
	return nil
}

// TruncateThrough removes closed segments whose commits are all covered
// by a snapshot at version v. The active segment is never removed
// (rotation, not truncation, seals it).
func (l *Log) TruncateThrough(v int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := l.segments()
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if seg == l.seg {
			continue
		}
		if max, known := l.segMax[seg]; known && max <= v {
			if err := os.Remove(l.segPath(seg)); err != nil {
				return fmt.Errorf("wal: truncate: %w", err)
			}
			delete(l.segMax, seg)
		}
	}
	l.appended = 0
	return nil
}

// Sync flushes the active segment (used by snapshot writes that must
// order after all appended records).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: fsync: %w", err)
		return l.err
	}
	return nil
}

// Close flushes and closes the active segment. The log is unusable
// afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if err != nil && l.err == nil {
		l.err = err
	}
	return err
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
