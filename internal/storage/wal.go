package storage

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/disk"
)

// Write-ahead log record types.
const (
	recCreateTable byte = 1
	recInsert      byte = 2
	recDelete      byte = 3
	recCommit      byte = 4
	recVacuum      byte = 5
	recCheckpoint  byte = 6
)

// walRecord is one decoded log record.
type walRecord struct {
	kind    byte
	tableID uint32
	rowid   int64
	row     Row
	schema  Schema
}

// appendUvarint / readers use encoding/binary's varint forms for compactness.

func appendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case KindNull:
	case KindInt:
		dst = binary.AppendVarint(dst, v.Int)
	case KindFloat:
		dst = binary.AppendUvarint(dst, math.Float64bits(v.Float))
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.Str)))
		dst = append(dst, v.Str...)
	case KindTime:
		dst = binary.AppendVarint(dst, v.Time.UnixNano())
	}
	return dst
}

func readValue(buf []byte) (Value, []byte, error) {
	if len(buf) == 0 {
		return Value{}, nil, io.ErrUnexpectedEOF
	}
	k := Kind(buf[0])
	buf = buf[1:]
	switch k {
	case KindNull:
		return Null(), buf, nil
	case KindInt:
		v, n := binary.Varint(buf)
		if n <= 0 {
			return Value{}, nil, io.ErrUnexpectedEOF
		}
		return Int64(v), buf[n:], nil
	case KindFloat:
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return Value{}, nil, io.ErrUnexpectedEOF
		}
		return Float64(math.Float64frombits(v)), buf[n:], nil
	case KindString:
		l, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf)-n) < l {
			return Value{}, nil, io.ErrUnexpectedEOF
		}
		s := string(buf[n : n+int(l)])
		return String(s), buf[n+int(l):], nil
	case KindTime:
		v, n := binary.Varint(buf)
		if n <= 0 {
			return Value{}, nil, io.ErrUnexpectedEOF
		}
		return Timestamp(time.Unix(0, v)), buf[n:], nil
	default:
		return Value{}, nil, fmt.Errorf("storage: wal: invalid value kind %d", k)
	}
}

func appendRow(dst []byte, row Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = appendValue(dst, v)
	}
	return dst
}

func readRow(buf []byte) (Row, []byte, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, nil, io.ErrUnexpectedEOF
	}
	buf = buf[sz:]
	row := make(Row, 0, n)
	for i := uint64(0); i < n; i++ {
		var v Value
		var err error
		v, buf, err = readValue(buf)
		if err != nil {
			return nil, nil, err
		}
		row = append(row, v)
	}
	return row, buf, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(buf []byte) (string, []byte, error) {
	l, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf)-n) < l {
		return "", nil, io.ErrUnexpectedEOF
	}
	return string(buf[n : n+int(l)]), buf[n+int(l):], nil
}

func appendSchema(dst []byte, s Schema) []byte {
	dst = appendString(dst, s.Name)
	dst = binary.AppendUvarint(dst, uint64(len(s.Columns)))
	for _, c := range s.Columns {
		dst = appendString(dst, c.Name)
		dst = append(dst, byte(c.Kind))
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Indexes)))
	for _, ix := range s.Indexes {
		dst = appendString(dst, ix.Name)
		if ix.Unique {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.AppendUvarint(dst, uint64(len(ix.Columns)))
		for _, col := range ix.Columns {
			dst = appendString(dst, col)
		}
	}
	return dst
}

func readSchema(buf []byte) (Schema, []byte, error) {
	var s Schema
	var err error
	if s.Name, buf, err = readString(buf); err != nil {
		return s, nil, err
	}
	ncols, n := binary.Uvarint(buf)
	if n <= 0 {
		return s, nil, io.ErrUnexpectedEOF
	}
	buf = buf[n:]
	for i := uint64(0); i < ncols; i++ {
		var c Column
		if c.Name, buf, err = readString(buf); err != nil {
			return s, nil, err
		}
		if len(buf) == 0 {
			return s, nil, io.ErrUnexpectedEOF
		}
		c.Kind = Kind(buf[0])
		buf = buf[1:]
		s.Columns = append(s.Columns, c)
	}
	nidx, n := binary.Uvarint(buf)
	if n <= 0 {
		return s, nil, io.ErrUnexpectedEOF
	}
	buf = buf[n:]
	for i := uint64(0); i < nidx; i++ {
		var ix IndexSpec
		if ix.Name, buf, err = readString(buf); err != nil {
			return s, nil, err
		}
		if len(buf) == 0 {
			return s, nil, io.ErrUnexpectedEOF
		}
		ix.Unique = buf[0] == 1
		buf = buf[1:]
		ncol, n := binary.Uvarint(buf)
		if n <= 0 {
			return s, nil, io.ErrUnexpectedEOF
		}
		buf = buf[n:]
		for j := uint64(0); j < ncol; j++ {
			var col string
			if col, buf, err = readString(buf); err != nil {
				return s, nil, err
			}
			ix.Columns = append(ix.Columns, col)
		}
		s.Indexes = append(s.Indexes, ix)
	}
	return s, buf, nil
}

// appendWALPayload serializes one logical record's payload into dst.
func appendWALPayload(dst []byte, rec walRecord) []byte {
	dst = append(dst, rec.kind)
	switch rec.kind {
	case recCreateTable:
		dst = binary.AppendUvarint(dst, uint64(rec.tableID))
		dst = appendSchema(dst, rec.schema)
	case recInsert:
		dst = binary.AppendUvarint(dst, uint64(rec.tableID))
		dst = binary.AppendVarint(dst, rec.rowid)
		dst = appendRow(dst, rec.row)
	case recDelete:
		dst = binary.AppendUvarint(dst, uint64(rec.tableID))
		dst = binary.AppendVarint(dst, rec.rowid)
	case recCommit, recCheckpoint:
		// no body
	case recVacuum:
		dst = binary.AppendUvarint(dst, uint64(rec.tableID))
	}
	return dst
}

// payloadPool recycles the scratch buffer appendWALRecord needs to frame a
// payload (the length and checksum precede the bytes they describe, so the
// payload has to be materialized before it can be framed).
var payloadPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// appendWALRecord frames one logical record — length, crc32, payload — onto
// dst. It is the allocation-free encode path for the commit hot loop.
func appendWALRecord(dst []byte, rec walRecord) []byte {
	sp := payloadPool.Get().(*[]byte)
	payload := appendWALPayload((*sp)[:0], rec)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	var crcBuf [4]byte
	binary.BigEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(payload))
	dst = append(dst, crcBuf[:]...)
	dst = append(dst, payload...)
	*sp = payload
	payloadPool.Put(sp)
	return dst
}

// walEncode serializes one logical record into a fresh frame.
func walEncode(rec walRecord) []byte {
	return appendWALRecord(nil, rec)
}

var errCorruptWAL = errors.New("storage: corrupt WAL record")

// walDecodeStream reads framed records from r, calling fn for each fully
// intact record. A torn or corrupt tail (the normal result of a crash during
// append) terminates the scan without error; anything before it is applied.
func walDecodeStream(r io.Reader, fn func(walRecord) error) error {
	br := bufio.NewReaderSize(r, 1<<16)
	for {
		length, err := binary.ReadUvarint(br)
		if err != nil {
			return nil // clean EOF or torn length: stop
		}
		if length > 1<<28 {
			return nil // implausible length: treat as torn tail
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
			return nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil
		}
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(crcBuf[:]) {
			return nil // corrupt tail
		}
		rec, err := walDecodePayload(payload)
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

func walDecodePayload(payload []byte) (walRecord, error) {
	if len(payload) == 0 {
		return walRecord{}, errCorruptWAL
	}
	rec := walRecord{kind: payload[0]}
	buf := payload[1:]
	readTable := func() error {
		id, n := binary.Uvarint(buf)
		if n <= 0 {
			return errCorruptWAL
		}
		rec.tableID = uint32(id)
		buf = buf[n:]
		return nil
	}
	switch rec.kind {
	case recCreateTable:
		if err := readTable(); err != nil {
			return rec, err
		}
		var err error
		rec.schema, _, err = readSchema(buf)
		return rec, err
	case recInsert:
		if err := readTable(); err != nil {
			return rec, err
		}
		id, n := binary.Varint(buf)
		if n <= 0 {
			return rec, errCorruptWAL
		}
		rec.rowid = id
		buf = buf[n:]
		var err error
		rec.row, _, err = readRow(buf)
		return rec, err
	case recDelete:
		if err := readTable(); err != nil {
			return rec, err
		}
		id, n := binary.Varint(buf)
		if n <= 0 {
			return rec, errCorruptWAL
		}
		rec.rowid = id
		return rec, nil
	case recCommit, recCheckpoint:
		return rec, nil
	case recVacuum:
		return rec, readTable()
	default:
		return rec, fmt.Errorf("storage: unknown WAL record kind %d", rec.kind)
	}
}

// gcBuckets is the number of group-commit batch-size histogram buckets:
// upper bounds 1, 2, 4, 8, 16 and a final overflow bucket.
const gcBuckets = 6

// gcBucket maps a batch size to its histogram bucket.
func gcBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n <= 2:
		return 1
	case n <= 4:
		return 2
	case n <= 8:
		return 3
	case n <= 16:
		return 4
	default:
		return 5
	}
}

// walStats is a consistent snapshot of the log's counters.
type walStats struct {
	size         int64
	appends      int64
	syncs        int64
	bytesWritten int64

	gcCommits      int64
	gcBatches      int64
	gcSyncsAvoided int64
	gcMaxBatch     int64
	gcBatchSizes   [gcBuckets]int64
}

// wal is the write-ahead log: an append-only file (or, for in-memory
// engines, nothing) plus the simulated device charge for every append. It is
// internally synchronized — the engine's table latches do not cover it — so
// transactions on disjoint tables can commit concurrently, serializing only
// on the short append and coalescing their durability into group commits.
// The cumulative counters (appends, syncs, bytesWritten) survive reset and
// feed the engine's telemetry.
type wal struct {
	f   *os.File     // nil for memory-only engines
	dev *disk.Device // charged one sync per group-commit batch; may be nil

	mu      sync.Mutex
	idle    sync.Cond  // signalled when the group-commit leader goes idle
	size    int64      // guarded by mu, like every field below
	dirty   bool       // frames appended but not yet synced (background-flush mode)
	syncing bool       // a group-commit leader is draining batches
	forming *groupSync // the batch committers are joining, nil when empty

	appends      int64
	syncs        int64
	bytesWritten int64

	gcCommits      int64
	gcBatches      int64
	gcSyncsAvoided int64
	gcMaxBatch     int64
	gcBatchSizes   [gcBuckets]int64
}

func newWAL(f *os.File, size int64, dev *disk.Device) *wal {
	w := &wal{f: f, size: size, dev: dev}
	w.idle.L = &w.mu
	return w
}

func openWAL(path string, dev *disk.Device) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return newWAL(f, st.Size(), dev), nil
}

// appendLocked writes an already framed record batch. Caller holds w.mu.
func (w *wal) appendLocked(frame []byte) error {
	w.size += int64(len(frame))
	w.appends++
	w.bytesWritten += int64(len(frame))
	if w.f == nil {
		return nil
	}
	_, err := w.f.Write(frame)
	return err
}

// append writes an already framed record batch outside the commit path
// (CreateTable, Vacuum, recovery-time checkpointing).
func (w *wal) append(frame []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(frame)
}

// groupSync is one group-commit batch's durability outcome. Every committer
// in the batch holds it; the leader records err and closes done once the
// batch's sync has finished, so any number of committers can wait on it.
type groupSync struct {
	done chan struct{}
	err  error // written before done is closed
	n    int   // commits in the batch; guarded by wal.mu until the batch is taken
}

// wait blocks until the batch's sync finished or ctx is done. A finished
// sync wins over a cancelled context, so a committer whose durability is
// confirmed never reports failure; a committer that stops waiting gets
// ctx.Err(), never success, since its durability was not confirmed. Either
// failure wraps ErrNotDurable.
func (g *groupSync) wait(ctx context.Context) error {
	select {
	case <-g.done:
	default:
		select {
		case <-g.done:
		case <-ctx.Done():
			return fmt.Errorf("%w: %w", ErrNotDurable, ctx.Err())
		}
	}
	if g.err != nil {
		return fmt.Errorf("%w: %w", ErrNotDurable, g.err)
	}
	return nil
}

// commitAppend appends one committed transaction's frame and applies the
// durability policy. The caller still holds its table latches, which is what
// keeps the log's append order consistent with the commit order on every
// table (replay correctness).
//
// With flush false, the frame just marks the log dirty for the background
// flusher and g is nil. With flush true, the committer joins the forming
// group-commit batch g, to wait on *after* releasing its latches. The first
// committer to arrive while no sync is in flight is the batch leader (lead
// is true) and must call lead, which pays one file sync plus one device sync
// on behalf of every committer that joined meanwhile. FlushOnCommit thus
// costs one device sync per batch instead of per transaction.
//
// The leader ignores cancellation: it owns the batch's sync, and every other
// committer is waiting on it to finish. A follower may stop waiting when its
// context ends (groupSync.wait); the batch completes without it.
func (w *wal) commitAppend(frame []byte, flush bool) (g *groupSync, lead bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendLocked(frame); err != nil {
		return nil, false, err
	}
	if !flush {
		w.dirty = true
		return nil, false, nil
	}
	if w.forming == nil {
		w.forming = &groupSync{done: make(chan struct{})}
	}
	w.forming.n++
	w.gcCommits++
	lead = !w.syncing
	w.syncing = true
	return w.forming, lead, nil
}

// lead drains group-commit batches until no committers are waiting. Each
// round takes the forming batch, pays one file sync and one device sync for
// all of its committers, and publishes the outcome; committers arriving
// during those syncs form the next batch.
func (w *wal) lead() {
	w.mu.Lock()
	for w.forming != nil {
		batch := w.forming
		w.forming = nil
		w.dirty = false // the sync below covers earlier unflushed frames too
		w.syncs++
		w.gcBatches++
		w.gcSyncsAvoided += int64(batch.n - 1)
		if n := int64(batch.n); n > w.gcMaxBatch {
			w.gcMaxBatch = n
		}
		w.gcBatchSizes[gcBucket(batch.n)]++
		w.mu.Unlock()
		batch.err = w.fsync()
		if w.dev != nil {
			w.dev.Sync()
		}
		close(batch.done)
		w.mu.Lock()
	}
	w.syncing = false
	w.idle.Broadcast()
	w.mu.Unlock()
}

// drain blocks until no group-commit leader is running. Callers that hold
// the exclusive global latch (Close, Checkpoint) use it to wait out
// committers that have already released their latches but whose batch sync
// is still in flight.
func (w *wal) drain() {
	w.mu.Lock()
	for w.syncing {
		w.idle.Wait()
	}
	w.mu.Unlock()
}

// fsync flushes the OS file (the simulated device charge is separate and
// paid by the caller so memory-only engines still model it).
func (w *wal) fsync() error {
	w.mu.Lock()
	f := w.f
	w.mu.Unlock()
	if f == nil {
		return nil
	}
	return f.Sync()
}

// sync counts and performs a file flush outside the group-commit path.
func (w *wal) sync() error {
	w.mu.Lock()
	w.syncs++
	w.dirty = false
	w.mu.Unlock()
	return w.fsync()
}

// markDirty records that frames were appended under the background-flush
// durability policy.
func (w *wal) markDirty() {
	w.mu.Lock()
	w.dirty = true
	w.mu.Unlock()
}

// flushIfDirty syncs the file if frames were appended since the last sync,
// reporting whether a sync happened so the caller can charge the device. On
// file error the log stays dirty and the flush is retried next interval.
func (w *wal) flushIfDirty() (bool, error) {
	w.mu.Lock()
	if !w.dirty {
		w.mu.Unlock()
		return false, nil
	}
	w.dirty = false
	w.syncs++
	w.mu.Unlock()
	err := w.fsync()
	if err != nil {
		w.mu.Lock()
		w.dirty = true
		w.mu.Unlock()
	}
	return true, err
}

// stats returns a consistent snapshot of the counters.
func (w *wal) stats() walStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return walStats{
		size:           w.size,
		appends:        w.appends,
		syncs:          w.syncs,
		bytesWritten:   w.bytesWritten,
		gcCommits:      w.gcCommits,
		gcBatches:      w.gcBatches,
		gcSyncsAvoided: w.gcSyncsAvoided,
		gcMaxBatch:     w.gcMaxBatch,
		gcBatchSizes:   w.gcBatchSizes,
	}
}

// rotate moves the live log aside for a checkpoint: sync, close, rename to
// prevPath, reopen a fresh file at path. The caller holds the exclusive
// global latch with group commit drained, so no appends can race the
// rotation; the file I/O runs outside w.mu (lock discipline), and the only
// concurrent w.f user — the background flusher's fsync — snapshots the
// handle under the mutex, so at worst it syncs the closing segment (whose
// data rotate just synced) and retries on the fresh one. The renamed
// segment stays on disk until the checkpoint's snapshot lands, which is
// what keeps a crash mid-checkpoint recoverable.
func (w *wal) rotate(path, prevPath string) error {
	w.mu.Lock()
	w.size = 0
	f := w.f
	w.mu.Unlock()
	if f == nil {
		return nil
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(path, prevPath); err != nil {
		return err
	}
	nf, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.f = nf
	w.mu.Unlock()
	return nil
}

func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	return w.f.Close()
}
