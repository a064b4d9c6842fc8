// Package wal is the durable-log primitive beneath every on-disk format
// in the repository: site checkpoints and delta logs
// (internal/checkpoint), the driver journal (internal/journal) and the
// out-of-core page store (internal/storage). Each of those keeps its own
// typed record codec and recovery policy; the decisions they share live
// here, once.
//
// File layout:
//
//	magic (4) | version (1) | kind (1)          6-byte header
//	records, each:
//	    payload length  big-endian uint32 (4)
//	    CRC-32 (IEEE)   big-endian uint32 (4) of the payload
//	    payload
//
// Reading returns the valid prefix of a file. A torn trailing record —
// the file ends inside a frame, the expected shape of a crash
// mid-append — ends the prefix and is truncated away before the file is
// reopened for append. Anything else that fails validation (a header
// mismatch, a CRC failure, an unreadable file, or an error from the
// caller's record decoder) is a corrupt error wrapping the format's own
// sentinel. The reader never trusts a declared length for allocation:
// a record longer than the bytes left in the file is torn.
//
// Writing: Append buffers a record, Flush pushes buffered records to the
// file (durable against process death, no fsync), Sync also fsyncs.
// Replace atomically swaps in a whole new file: temp file, fsync,
// rename, then a best-effort sync of the directory so the rename itself
// survives a power loss.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	// HeaderLen is the size of the file header: magic, version, kind.
	HeaderLen = 6
	// FrameOverhead is the per-record framing cost in bytes (length +
	// CRC).
	FrameOverhead = 8
)

// ErrTornRecord marks an incomplete trailing record: the input ends
// inside the frame.
var ErrTornRecord = errors.New("torn trailing record")

// ErrBadCRC marks a complete record whose payload fails its checksum —
// genuine corruption, never the benign crash-mid-append shape.
var ErrBadCRC = errors.New("record CRC mismatch")

// WriteFrame writes one length+CRC-prefixed record.
func WriteFrame(w io.Writer, payload []byte) error {
	var frame [FrameOverhead]byte
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(frame[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one record from r, which has avail bytes left, and
// verifies its CRC. io.EOF means a clean end at a record boundary;
// ErrTornRecord means the input ends inside the record; ErrBadCRC is
// corruption; any other error is the reader's. The declared payload
// length is checked against avail before anything is allocated, so a
// damaged length field cannot make a short input allocate gigabytes.
func ReadFrame(r io.Reader, avail int64) ([]byte, error) {
	var frame [FrameOverhead]byte
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, asTorn(err)
	}
	n := int64(binary.BigEndian.Uint32(frame[0:4]))
	if n > avail-FrameOverhead {
		return nil, ErrTornRecord
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, asTorn(err)
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(frame[4:8]) {
		return nil, ErrBadCRC
	}
	return payload, nil
}

// asTorn maps running out of input to ErrTornRecord and keeps genuine
// read errors as they are.
func asTorn(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTornRecord
	}
	return err
}

// Format identifies one kind of log file by its header.
type Format struct {
	Magic   string // exactly 4 bytes
	Version byte
	Kind    byte
	// Corrupt is the sentinel every validation failure wraps, so each
	// caller matches its own typed error with errors.Is.
	Corrupt error
}

// Corruptf returns a validation failure of the file at path, wrapping
// f.Corrupt.
func (f Format) Corruptf(path, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", f.Corrupt, path, fmt.Sprintf(format, args...))
}

// WriteHeader writes the 6-byte file header.
func (f Format) WriteHeader(w io.Writer) error {
	_, err := w.Write([]byte{f.Magic[0], f.Magic[1], f.Magic[2], f.Magic[3], f.Version, f.Kind})
	return err
}

func (f Format) checkHeader(r io.Reader, path string) error {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return f.Corruptf(path, "truncated header")
	}
	switch {
	case string(hdr[:4]) != f.Magic:
		return f.Corruptf(path, "bad magic %x", hdr[:4])
	case hdr[4] != f.Version:
		return f.Corruptf(path, "format version %d, want %d", hdr[4], f.Version)
	case hdr[5] != f.Kind:
		return f.Corruptf(path, "file kind %d, want %d", hdr[5], f.Kind)
	}
	return nil
}

// RecordFunc receives one record of a file's valid prefix: its offset,
// its framed size (FrameOverhead + payload) and its payload. A non-nil
// return stops the read with that error.
type RecordFunc func(off, size int64, payload []byte) error

// scan validates the header read from r, which holds size bytes, then
// passes each record of the valid prefix to fn. It returns the end
// offset of that prefix and whether a torn record follows it.
func (f Format) scan(r io.Reader, size int64, path string, fn RecordFunc) (end int64, torn bool, err error) {
	if err := f.checkHeader(r, path); err != nil {
		return 0, false, err
	}
	end = HeaderLen
	for {
		payload, err := ReadFrame(r, size-end)
		switch {
		case err == io.EOF:
			return end, false, nil
		case err == ErrTornRecord:
			return end, true, nil
		case err != nil:
			return 0, false, f.Corruptf(path, "@%d: %v", end, err)
		}
		rec := int64(FrameOverhead + len(payload))
		if err := fn(end, rec, payload); err != nil {
			return 0, false, err
		}
		end += rec
	}
}

// Scan reads the file at path without modifying it, passing each record
// of its valid prefix to fn, and reports whether a torn record follows
// the prefix. For files that are read whole and never appended to.
func (f Format) Scan(path string, fn RecordFunc) (torn bool, err error) {
	file, err := os.Open(path)
	if err != nil {
		return false, f.Corruptf(path, "%v", err)
	}
	defer file.Close()
	fi, err := file.Stat()
	if err != nil {
		return false, f.Corruptf(path, "%v", err)
	}
	_, torn, err = f.scan(bufio.NewReader(file), fi.Size(), path, fn)
	return torn, err
}

// Log is one log file open for append through a write buffer.
type Log struct {
	file   *os.File
	w      *bufio.Writer
	path   string
	format Format
	end    int64 // offset after the last appended record
}

// newLog wraps file, positioned at end, as a log. At end 0 the file is
// empty and the log starts with a buffered header.
func (f Format) newLog(file *os.File, path string, end int64) *Log {
	l := &Log{file: file, w: bufio.NewWriter(file), path: path, format: f, end: end}
	if end == 0 {
		_ = f.WriteHeader(l.w) // into an empty buffer: cannot fail
		l.end = HeaderLen
	}
	return l
}

// Open opens the log at path for append. A missing or empty file is
// started with a header; otherwise the valid prefix is passed to fn, a
// torn tail is truncated away, and appends continue after the prefix.
// On a corrupt file the error wraps f.Corrupt and the file is left as
// it was.
func (f Format) Open(path string, fn RecordFunc) (*Log, error) {
	file, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l, err := f.open(file, path, fn)
	if err != nil {
		file.Close()
		return nil, err
	}
	return l, nil
}

func (f Format) open(file *os.File, path string, fn RecordFunc) (*Log, error) {
	fi, err := file.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() == 0 {
		l := f.newLog(file, path, 0)
		return l, l.Flush()
	}
	end, torn, err := f.scan(bufio.NewReader(file), fi.Size(), path, fn)
	if err != nil {
		return nil, err
	}
	if torn {
		if err := file.Truncate(end); err != nil {
			return nil, err
		}
	}
	if _, err := file.Seek(end, io.SeekStart); err != nil {
		return nil, err
	}
	return f.newLog(file, path, end), nil
}

// Create starts an empty log at path, replacing any file there. The
// header is written through to the file but not synced.
func (f Format) Create(path string) (*Log, error) {
	file, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	l := f.newLog(file, path, 0)
	if err := l.Flush(); err != nil {
		file.Close()
		return nil, err
	}
	return l, nil
}

// Replace atomically swaps a new log in at path: fill appends its
// records to a temp file beside path, which is then fsynced and renamed
// over path, and the directory is synced (best effort). A crash at any
// point leaves either the old file or the new one. The returned log is
// the new file, open for append after fill's records; on error path is
// untouched.
func (f Format) Replace(path string, fill func(*Log) error) (*Log, error) {
	tmp := path + ".tmp"
	file, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	l := f.newLog(file, tmp, 0)
	err = fill(l)
	if err == nil {
		err = l.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		file.Close()
		os.Remove(tmp)
		return nil, err
	}
	l.path = path
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync() // best effort: not every filesystem can sync a directory
		d.Close()
	}
	return l, nil
}

// Append buffers one record. It reaches the file at the next Flush or
// Sync.
func (l *Log) Append(payload []byte) error {
	if err := WriteFrame(l.w, payload); err != nil {
		return err
	}
	l.end += int64(FrameOverhead + len(payload))
	return nil
}

// Size returns the log's length in bytes, buffered records included.
func (l *Log) Size() int64 { return l.end }

// Flush writes buffered records to the file: durable against process
// death, not against power loss.
func (l *Log) Flush() error { return l.w.Flush() }

// Sync flushes buffered records and fsyncs the file.
func (l *Log) Sync() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.file.Sync()
}

// Read returns the payload of the flushed record at off whose framed
// size is size. Any failure is corruption: the caller's index said a
// whole record was there.
func (l *Log) Read(off, size int64) ([]byte, error) {
	payload, err := ReadFrame(io.NewSectionReader(l.file, off, size), size)
	if err != nil {
		return nil, l.format.Corruptf(l.path, "@%d: %v", off, err)
	}
	return payload, nil
}

// Close releases the file. Records appended since the last Flush or
// Sync are dropped, so callers that keep them flush first.
func (l *Log) Close() error { return l.file.Close() }

// Series names the epoch-numbered files of one kind in a directory:
// Prefix, the epoch as 16 hex digits, then Suffix.
type Series struct {
	Prefix, Suffix string
}

// Path returns the file of epoch in dir.
func (s Series) Path(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", s.Prefix, epoch, s.Suffix))
}

// Epochs lists the series' epochs present in dir, newest first, and
// removes the temp files a crash mid-Replace left behind.
func (s Series) Epochs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var epochs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, s.Prefix) {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		hexa, ok := strings.CutSuffix(name[len(s.Prefix):], s.Suffix)
		if !ok {
			continue
		}
		if epoch, err := strconv.ParseUint(hexa, 16, 64); err == nil {
			epochs = append(epochs, epoch)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] > epochs[j] })
	return epochs, nil
}

// Reset removes every file of the given series from dir, temp files
// included.
func Reset(dir string, series ...Series) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		for _, s := range series {
			if strings.HasPrefix(e.Name(), s.Prefix) {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	return nil
}

// ProbeDir creates dir if needed and checks that it is writable, so a
// misconfigured deployment fails when it opens its log, not at the
// first append.
func ProbeDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	probe := filepath.Join(dir, ".probe")
	f, err := os.Create(probe)
	if err != nil {
		return fmt.Errorf("dir %s not writable: %w", dir, err)
	}
	f.Close()
	os.Remove(probe)
	return nil
}
