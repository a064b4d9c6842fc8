// Package checkpoint is the durable-state layer of a site daemon:
// versioned, CRC-checksummed, atomically-renamed snapshot files plus an
// append-only delta log of the raw calls applied since the snapshot.
//
// The design leans on the same determinism that makes the differential
// oracles possible: a hosted site mutates its state only through the
// serialized call stream the driver sends it, and every handler is a
// deterministic function of (state, call). A checkpoint is therefore a
// full snapshot at some call sequence number S plus the raw (seq,
// method, payload) records executed after S; replaying the records
// through the ordinary dispatch path reconstructs the exact pre-crash
// state — including the at-most-once reply window — with cost
// proportional to the delta, not the database (the paper's boundedness
// result, carried through to recovery).
//
// On-disk layout (one directory per site):
//
//	snap-<epoch>.ckpt   one gob(Snapshot) record
//	delta-<epoch>.log   gob(Record) records
//
// Both are internal/wal logs (magic "RCKP", kind 1 for snapshots and 2
// for delta logs; the header, record frame and torn-tail rule are
// wal's). Snapshots are written with wal.Replace; writing a snapshot is
// also the log's compaction — the new epoch starts an empty log and the
// old epoch's files are removed.
//
// Validation is strict in one direction and lenient in the other: a
// truncated or CRC-damaged snapshot, a mid-log CRC failure, or a
// version mismatch between a snapshot and its delta log invalidates the
// whole epoch (never load partial state). Recover then falls back to an
// older valid epoch, and when none is left surfaces
// xerr.ErrCheckpointCorrupt and the daemon starts empty, degrading to a
// full reseed. A torn *trailing* log record, by contrast, is the
// expected shape of a crash mid-append: everything before it was
// already made durable and acknowledged, the torn tail never was — so
// the valid prefix is recovered and the file truncated at the tear.
//
// None of these bytes ride the metered protocol streams: snapshots and
// records are encoded with stream-local gob encoders, so the committed
// wire-meter baselines stay bit-identical whether or not checkpointing
// is on.
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"

	"repro/internal/wal"
	"repro/internal/xerr"
)

// FormatVersion is the on-disk format version; a snapshot and its delta
// log must agree on it.
const FormatVersion = 1

// The two file kinds share magic and version; the kind byte keeps
// either from being misread as the other.
var (
	snapFormat  = wal.Format{Magic: "RCKP", Version: FormatVersion, Kind: 1, Corrupt: xerr.ErrCheckpointCorrupt}
	deltaFormat = wal.Format{Magic: "RCKP", Version: FormatVersion, Kind: 2, Corrupt: xerr.ErrCheckpointCorrupt}
	snapSeries  = wal.Series{Prefix: "snap-", Suffix: ".ckpt"}
	deltaSeries = wal.Series{Prefix: "delta-", Suffix: ".log"}
)

// Record is one raw call applied after the current snapshot: exactly
// the (seq, method, payload) triple the driver sent. Replaying it
// through the daemon's dispatch path re-executes it deterministically.
type Record struct {
	Seq    uint64
	Method string
	Data   []byte
}

// Reply is one cached reply of the daemon's at-most-once window,
// persisted so a resend arriving after a crash-recovery is still served
// from cache instead of executing twice.
type Reply struct {
	Seq  uint64
	Data []byte
	Err  string
}

// Snapshot is the full durable state of a hosted site at sequence
// number LastSeq.
type Snapshot struct {
	// Epoch is the snapshot's monotonically increasing number, assigned
	// by WriteSnapshot.
	Epoch uint64
	// Hello is the driver's original bootstrap payload: everything
	// needed to rebuild the site skeleton (schema, rules, plan, session
	// identity) before Engine state is loaded into it.
	Hello []byte
	// LastSeq is the highest call sequence number reflected in Engine.
	LastSeq uint64
	// Window is the reply cache at snapshot time.
	Window []Reply
	// Engine is the engine-specific state blob (horizontal or vertical
	// site snapshot): relation fragment, per-rule group/equivalence
	// state and mark flags.
	Engine []byte
}

// Store manages one site's checkpoint directory: the current snapshot
// epoch and its open delta log.
type Store struct {
	dir   string
	epoch uint64 // current snapshot epoch; 0 = no snapshot yet
	log   *wal.Log
}

// Open prepares dir as a checkpoint directory, creating it if needed,
// and probes that it is writable (a daemon asked to checkpoint into a
// read-only directory must fail loudly at startup, not at the first
// batch).
func Open(dir string) (*Store, error) {
	if err := wal.ProbeDir(dir); err != nil {
		return nil, wrap(err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Epoch returns the current snapshot epoch (0 before the first
// snapshot).
func (s *Store) Epoch() uint64 { return s.epoch }

func (s *Store) snapPath(epoch uint64) string { return snapSeries.Path(s.dir, epoch) }

func (s *Store) logPath(epoch uint64) string { return deltaSeries.Path(s.dir, epoch) }

// Recover scans the directory for the newest valid checkpoint and
// returns its snapshot plus the delta-log records appended after it.
// (nil, nil, nil) means a clean empty directory. A corrupt epoch is
// skipped in favor of an older valid one; if nothing valid remains the
// error wraps xerr.ErrCheckpointCorrupt and the caller starts empty —
// the store itself stays usable either way, positioned so the next
// snapshot gets a fresh epoch above anything seen on disk.
func (s *Store) Recover() (*Snapshot, []Record, error) {
	epochs, err := snapSeries.Epochs(s.dir)
	if err != nil || len(epochs) == 0 {
		return nil, nil, wrap(err)
	}
	// New snapshots must never collide with stale on-disk epochs, valid
	// or not.
	s.epoch = epochs[0]

	var firstErr error
	for _, epoch := range epochs {
		snap, recs, err := s.loadEpoch(epoch)
		if err == nil {
			return snap, recs, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, nil, wrap(firstErr)
}

// loadEpoch validates and loads one epoch's snapshot + delta log; on
// success the delta log is (re)opened for append, truncated past any
// torn trailing record.
func (s *Store) loadEpoch(epoch uint64) (*Snapshot, []Record, error) {
	path := s.snapPath(epoch)
	var snap *Snapshot
	// Unlike the log, a snapshot is all-or-nothing: exactly one
	// complete record, nothing after it.
	torn, err := snapFormat.Scan(path, func(_, _ int64, payload []byte) error {
		if snap != nil {
			return snapFormat.Corruptf(path, "trailing bytes after snapshot record")
		}
		snap = new(Snapshot)
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(snap); err != nil {
			return snapFormat.Corruptf(path, "decode: %v", err)
		}
		return nil
	})
	switch {
	case err != nil:
		return nil, nil, err
	case snap == nil || torn:
		return nil, nil, snapFormat.Corruptf(path, "truncated snapshot")
	case snap.Epoch != epoch:
		return nil, nil, snapFormat.Corruptf(path, "snapshot claims epoch %d", snap.Epoch)
	}
	logPath := s.logPath(epoch)
	var recs []Record
	log, err := deltaFormat.Open(logPath, func(_, _ int64, payload []byte) error {
		var rec Record
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			return deltaFormat.Corruptf(logPath, "decode record: %v", err)
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	s.closeLog()
	s.log = log
	return snap, recs, nil
}

// Append buffers one delta record. Records become durable at the next
// Flush or WriteSnapshot — the daemon acknowledges the driver's
// checkpoint mark only after flushing, so anything lost in between is
// still in the driver's replay log.
func (s *Store) Append(r Record) error {
	if s.log == nil {
		return fmt.Errorf("checkpoint: append before first snapshot")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&r); err != nil {
		return fmt.Errorf("checkpoint: encode record: %w", err)
	}
	return wrap(s.log.Append(buf.Bytes()))
}

// Flush pushes buffered delta records to the file. A completed write is
// durable against process death (the kill-and-restart fault model);
// media-level durability (fsync) is deliberately not paid per batch.
func (s *Store) Flush() error {
	if s.log == nil {
		return nil
	}
	if err := s.log.Flush(); err != nil {
		return fmt.Errorf("checkpoint: flush delta log: %w", err)
	}
	return nil
}

// WriteSnapshot persists a full snapshot as the next epoch with
// wal.Replace, then starts a fresh empty delta log. The previous
// epoch's files are removed afterwards — the snapshot is the log's
// compaction. snap.Epoch is assigned by this call.
func (s *Store) WriteSnapshot(snap *Snapshot) error {
	epoch := s.epoch + 1
	snap.Epoch = epoch

	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		return fmt.Errorf("checkpoint: encode snapshot: %w", err)
	}
	sl, err := snapFormat.Replace(s.snapPath(epoch), func(l *wal.Log) error { return l.Append(payload.Bytes()) })
	if err == nil {
		err = sl.Close()
	}
	if err != nil {
		return fmt.Errorf("checkpoint: write snapshot: %w", err)
	}

	// The snapshot is durable; start the new epoch's empty log and
	// compact the old epoch away.
	log, err := deltaFormat.Create(s.logPath(epoch))
	if err != nil {
		return wrap(err)
	}
	s.closeLog()
	s.log = log
	prev := s.epoch
	s.epoch = epoch
	if prev > 0 {
		os.Remove(s.snapPath(prev))
		os.Remove(s.logPath(prev))
	}
	return nil
}

// Reset discards every checkpoint file and returns the store to epoch
// 0 — a fresh bootstrap by a new session invalidates any state a
// previous session left behind.
func (s *Store) Reset() error {
	s.closeLog()
	s.epoch = 0
	return wrap(wal.Reset(s.dir, snapSeries, deltaSeries))
}

// Close flushes and closes the delta log.
func (s *Store) Close() error {
	if s.log == nil {
		return nil
	}
	err := s.log.Flush()
	s.closeLog()
	return wrap(err)
}

// closeLog drops the delta log without flushing it: its epoch is being
// replaced or discarded.
func (s *Store) closeLog() {
	if s.log != nil {
		s.log.Close()
		s.log = nil
	}
}

func wrap(err error) error {
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}
