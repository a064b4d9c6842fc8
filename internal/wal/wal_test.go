package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var (
	errTestCorrupt = errors.New("test log corrupt")
	testFormat     = Format{Magic: "TWAL", Version: 1, Kind: 'F', Corrupt: errTestCorrupt}
)

func header() []byte {
	var b bytes.Buffer
	testFormat.WriteHeader(&b)
	return b.Bytes()
}

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadFrameBoundsAllocation: a damaged length field on a short input
// is a torn record, reported without allocating the declared length —
// directly and through the recovery path that reopens a log.
func TestReadFrameBoundsAllocation(t *testing.T) {
	frame := make([]byte, 12)
	binary.BigEndian.PutUint32(frame[0:4], 0xFFFFFFF0)
	const limit = 1 << 20

	var err error
	if n := allocated(func() { _, err = ReadFrame(bytes.NewReader(frame), int64(len(frame))) }); n >= limit {
		t.Fatalf("ReadFrame of a 12-byte input allocated %d bytes", n)
	}
	if !errors.Is(err, ErrTornRecord) {
		t.Fatalf("ReadFrame = %v, want ErrTornRecord", err)
	}

	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, append(header(), frame...), 0o644); err != nil {
		t.Fatal(err)
	}
	var l *Log
	if n := allocated(func() { l, err = testFormat.Open(path, func(_, _ int64, _ []byte) error { return nil }) }); n >= limit {
		t.Fatalf("Open of a torn log allocated %d bytes", n)
	}
	if err != nil {
		t.Fatalf("Open of a torn log: %v", err)
	}
	l.Close()
	if fi, err := os.Stat(path); err != nil || fi.Size() != HeaderLen {
		t.Fatalf("torn record not truncated: %v, %v", fi.Size(), err)
	}
}

// FuzzWAL feeds arbitrary bytes after a valid header to the valid-prefix
// reader. It must never panic, allocate no more than a small multiple of
// the input, and either fail with the format's corrupt error or return
// a prefix that re-encodes and re-reads identically.
func FuzzWAL(f *testing.F) {
	var good bytes.Buffer
	WriteFrame(&good, []byte("first"))
	WriteFrame(&good, nil)
	WriteFrame(&good, bytes.Repeat([]byte{7}, 300))
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add(good.Bytes()[:good.Len()-1])               // torn payload
	f.Add(good.Bytes()[:4])                          // torn frame header
	f.Add(append([]byte{0, 0, 0, 1, 0, 0, 0, 0}, 9)) // CRC mismatch
	f.Add([]byte{0xff, 0xff, 0xff, 0xf0, 0, 0, 0, 0, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, body []byte) {
		data := append(header(), body...)
		read := func(in []byte) (recs [][]byte, end int64, torn bool, err error) {
			end, torn, err = testFormat.scan(bytes.NewReader(in), int64(len(in)), "fuzz", func(off, size int64, p []byte) error {
				if size != int64(FrameOverhead+len(p)) {
					t.Fatalf("record @%d: size %d for a %d-byte payload", off, size, len(p))
				}
				recs = append(recs, p)
				return nil
			})
			return recs, end, torn, err
		}
		n := allocated(func() {
			testFormat.scan(bytes.NewReader(data), int64(len(data)), "fuzz", func(_, _ int64, _ []byte) error { return nil })
		})
		if limit := 4*uint64(len(data)) + 1024; n > limit {
			t.Fatalf("scan of %d bytes allocated %d", len(data), n)
		}
		recs, end, torn, err := read(data)
		if err != nil {
			if !errors.Is(err, errTestCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if end > int64(len(data)) || torn != (end < int64(len(data))) {
			t.Fatalf("prefix end %d of %d bytes, torn=%v", end, len(data), torn)
		}
		var rebuilt bytes.Buffer
		rebuilt.Write(header())
		for _, p := range recs {
			WriteFrame(&rebuilt, p)
		}
		if !bytes.Equal(rebuilt.Bytes(), data[:end]) {
			t.Fatalf("valid prefix does not re-encode identically")
		}
		again, end2, torn2, err := read(data[:end])
		if err != nil || end2 != end || torn2 || len(again) != len(recs) {
			t.Fatalf("re-read of the prefix: %d records to %d, torn=%v, err=%v", len(recs), end2, torn2, err)
		}
		for i := range recs {
			if !bytes.Equal(again[i], recs[i]) {
				t.Fatalf("record %d changed on re-read", i)
			}
		}
	})
}
