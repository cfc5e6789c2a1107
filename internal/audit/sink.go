package audit

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"gdprstore/internal/cryptoutil"
)

// Sink consumes serialized audit records. The pipeline's workers call
// Write once per record with both the decoded record and its JSONL
// serialization (no trailing newline), so in-engine sinks can keep the
// struct and export sinks can forward bytes without re-marshalling.
// Implementations must be safe for concurrent use: the pipeline runs
// several workers against one sink. line is valid only during Write (each
// worker reuses its buffer for the next record); a sink that keeps the
// bytes copies them.
type Sink interface {
	// Write appends one record.
	Write(r Record, line []byte) error
	// Sync forces everything written so far to stable storage (or the
	// remote end). Strict mode calls it before acknowledging an append.
	Sync() error
	// Close releases the sink after a final flush.
	Close() error
}

// FileSink persists records as (optionally encrypted) JSONL — the same
// on-disk format the pre-pipeline Trail wrote, so existing trails replay
// and new trails stay readable by scanFile.
type FileSink struct {
	mu    sync.Mutex
	f     *os.File
	w     *bufio.Writer
	dirty bool
	size  int64
	syncs uint64
	path  string
	key   []byte
}

// NewFileSink opens or appends to the trail file at path. A non-nil key
// encrypts the file at rest (32 bytes, AES-CTR keyed by byte offset).
func NewFileSink(path string, key []byte) (*FileSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("audit: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("audit: stat: %w", err)
	}
	s := &FileSink{f: f, size: st.Size(), path: path, key: key}
	var w io.Writer = f
	if key != nil {
		c, err := cryptoutil.NewOffsetCipher(key)
		if err != nil {
			f.Close()
			return nil, err
		}
		w = cryptoutil.NewWriter(f, c, st.Size())
	}
	s.w = bufio.NewWriterSize(w, 64*1024)
	return s, nil
}

// Write appends one serialized record.
func (s *FileSink) Write(_ Record, line []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("audit: file sink closed")
	}
	n, err := s.w.Write(line)
	s.size += int64(n)
	if err != nil {
		return err
	}
	if err := s.w.WriteByte('\n'); err != nil {
		return err
	}
	s.size++
	s.dirty = true
	return nil
}

// Flush pushes buffered bytes to the OS without forcing an fsync — enough
// for a reader of the file to observe them.
func (s *FileSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil || !s.dirty {
		return nil
	}
	return s.w.Flush()
}

// Sync flushes and fsyncs.
func (s *FileSink) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *FileSink) syncLocked() error {
	if s.f == nil || !s.dirty {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.dirty = false
	s.syncs++
	return nil
}

// Close flushes, fsyncs and closes the file.
func (s *FileSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	errSync := s.syncLocked()
	errClose := s.f.Close()
	s.f = nil
	if errSync != nil {
		return errSync
	}
	return errClose
}

// Size returns the logical file size in bytes.
func (s *FileSink) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Syncs returns the number of fsyncs issued.
func (s *FileSink) Syncs() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

// Path returns the trail file path.
func (s *FileSink) Path() string { return s.path }

// recoverTailWindow bounds how far back RecoverLastSeq reads. Records are
// small (a few hundred bytes) and pipeline reordering is bounded by
// workers × batch size, so the highest sequence number always sits well
// inside the final megabyte.
const recoverTailWindow = 1 << 20

// RecoverLastSeq returns the highest sequence number persisted in the
// trail file at path, reading only the final recoverTailWindow bytes
// instead of scanning the whole file (O(1) startup on large trails). A
// missing file returns 0. Torn tail lines (crash mid-append) are skipped;
// because pipeline workers may complete out of order, the maximum seq in
// the window is returned, not the last line's.
func RecoverLastSeq(path string, key []byte) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("audit: recover: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("audit: recover: %w", err)
	}
	size := st.Size()
	if size == 0 {
		return 0, nil
	}
	off := int64(0)
	if size > recoverTailWindow {
		off = size - recoverTailWindow
	}
	buf := make([]byte, size-off)
	if _, err := f.ReadAt(buf, off); err != nil && !errors.Is(err, io.EOF) {
		return 0, fmt.Errorf("audit: recover: %w", err)
	}
	if key != nil {
		c, err := cryptoutil.NewOffsetCipher(key)
		if err != nil {
			return 0, err
		}
		c.Apply(buf, off)
	}
	if off > 0 {
		// The window almost surely starts mid-line; drop the fragment.
		if i := bytes.IndexByte(buf, '\n'); i >= 0 {
			buf = buf[i+1:]
		} else {
			buf = nil
		}
	}
	var last uint64
	for len(buf) > 0 {
		line := buf
		if i := bytes.IndexByte(buf, '\n'); i >= 0 {
			line, buf = buf[:i], buf[i+1:]
		} else {
			buf = nil // torn tail (no newline): still try to parse
		}
		if len(line) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			continue // torn or corrupt line; seq recovery is best-effort max
		}
		if r.Seq > last {
			last = r.Seq
		}
	}
	return last, nil
}

// MemSink keeps a bounded ring of the most recent records in memory — the
// in-engine sink query.go serves from when the trail has no file, and the
// fast tail for diagnostics when it does.
type MemSink struct {
	mu  sync.Mutex
	buf []Record
	cap int
}

// NewMemSink returns a ring bounded to capacity records.
func NewMemSink(capacity int) *MemSink {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &MemSink{cap: capacity}
}

// Write appends the record, evicting the oldest half in one copy when the
// ring is full (amortised O(1)).
func (s *MemSink) Write(r Record, _ []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) >= s.cap {
		half := len(s.buf) / 2
		copy(s.buf, s.buf[half:])
		s.buf = s.buf[:len(s.buf)-half]
	}
	s.buf = append(s.buf, r)
	return nil
}

// Sync is a no-op: memory is as durable as it gets.
func (s *MemSink) Sync() error { return nil }

// Close is a no-op.
func (s *MemSink) Close() error { return nil }

// Records returns a copy of the retained tail.
func (s *MemSink) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Record(nil), s.buf...)
}

// MultiSink fans every call out to all children. Errors do not short-
// circuit: every child sees every record, and the joined error is
// reported so one failing export sink cannot silence the durable one.
type MultiSink struct {
	sinks []Sink
}

// NewMultiSink composes sinks; nils are skipped.
func NewMultiSink(sinks ...Sink) *MultiSink {
	m := &MultiSink{}
	for _, s := range sinks {
		if s != nil {
			m.sinks = append(m.sinks, s)
		}
	}
	return m
}

// Write fans out to every child.
func (m *MultiSink) Write(r Record, line []byte) error {
	var errs []error
	for _, s := range m.sinks {
		if err := s.Write(r, line); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Sync fans out to every child.
func (m *MultiSink) Sync() error {
	var errs []error
	for _, s := range m.sinks {
		if err := s.Sync(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Close fans out to every child.
func (m *MultiSink) Close() error {
	var errs []error
	for _, s := range m.sinks {
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
