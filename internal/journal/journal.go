// Package journal is the driver-side write-ahead log that makes a
// TCP-sites session crash-safe: where internal/checkpoint persists each
// *site's* state, the journal persists the *driver's* — the session
// identity, the folded rule set and plan, a mirror of the maintained
// relation, the per-site call watermarks, and every write round's
// intent, logged durably before the first wire call of the round goes
// out and marked applied (with the ∆V fingerprint) only after the
// round's checkpoint marks are acknowledged.
//
// Recovery leans on the same determinism as the rest of the repo: a
// driver rebuilt from the base record plus the applied intents, in
// order, reaches bit-identical dispatch state, so re-driving a dangling
// intent re-issues the same calls under the same sequence numbers and
// the daemons' dedupe windows make the resume exactly-once.
//
// On-disk layout (one directory per driver):
//
//	journal-<epoch>.wal   gob records
//
// The file is an internal/wal log (magic "RJRN"; the header, record
// frame and torn-tail rule are wal's). The first record is a
// self-contained Base; after it, Intent and Applied records strictly
// alternate — at most the final Intent may dangle (the round the driver
// died inside). Compaction (a fresh Base capturing the folded state)
// writes the next epoch with wal.Replace, then removes the old epoch.
//
// Validation is deliberately stricter than checkpoint's: a torn
// *trailing* record is the expected crash-mid-append shape and is
// truncated away, but any other damage — bad magic or version, a
// mid-file CRC failure, a broken Base/Intent/Applied interleave, or a
// corrupt newest epoch even when an older valid one survives — fails
// Recover with xerr.ErrJournalCorrupt. Falling back to an older epoch
// would silently resume a driver *behind* the cluster, which is exactly
// the divergence the journal exists to prevent; the caller resets and
// starts a fresh session instead.
package journal

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"

	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/wal"
	"repro/internal/xerr"
)

// FormatVersion is the on-disk journal format version.
const FormatVersion = 1

var (
	format = wal.Format{Magic: "RJRN", Version: FormatVersion, Kind: 1, Corrupt: xerr.ErrJournalCorrupt}
	series = wal.Series{Prefix: "journal-", Suffix: ".wal"}
)

// OpKind distinguishes the journaled write operations.
type OpKind uint8

const (
	// OpBatch is an ApplyBatch round (Updates carries the normalized ∆D).
	OpBatch OpKind = 1
	// OpAddRules is an AddRules round (Rules carries the new rules).
	OpAddRules OpKind = 2
	// OpRemoveRules is a RemoveRules round (RuleIDs carries the ids).
	OpRemoveRules OpKind = 3
)

func (k OpKind) String() string {
	switch k {
	case OpBatch:
		return "batch"
	case OpAddRules:
		return "add-rules"
	case OpRemoveRules:
		return "remove-rules"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Base is the self-contained foundation record of a journal epoch: the
// full driver state at round Round. Folding the applied intents after
// it reconstructs the driver exactly.
type Base struct {
	// SessionID is the 8-byte identity the driver presents to its
	// daemons; a resumed driver reuses it so reconnect handshakes are
	// accepted.
	SessionID []byte
	// Kind is the partition style ("horizontal" or "vertical").
	Kind string
	// Sites is the cluster size.
	Sites int
	// SchemaName and SchemaAttrs pin the relation schema, so a resume
	// against a different relation fails loudly instead of diverging.
	SchemaName  string
	SchemaAttrs []string
	// Round is the number of applied write rounds folded into this base.
	Round uint64
	// Seqs holds the per-site call watermarks (transport sequence
	// numbers) at this base — the journal's durability frontier.
	Seqs []uint64
	// Cursor is the cross-batch protocol cursor (the horizontal wave
	// counter; zero for vertical).
	Cursor uint64
	// Rules is the rule set in force.
	Rules []cfd.CFD
	// Plan is the gob-encoded §5 HEV plan (vertical only; nil otherwise).
	Plan []byte
	// Tuples is the full mirror of the maintained relation.
	Tuples []relation.Tuple
}

// Intent records one write round before its first wire call: enough to
// re-drive the round deterministically from the pre-round state.
type Intent struct {
	// Round is the 1-based round number this intent opens (previous
	// applied round + 1).
	Round uint64
	// Op says which of the payload fields below is meaningful.
	Op OpKind
	// Updates is the normalized ∆D of an OpBatch round.
	Updates relation.UpdateList
	// Rules carries OpAddRules' new rules.
	Rules []cfd.CFD
	// RuleIDs carries OpRemoveRules' retired ids.
	RuleIDs []string
	// Seqs are the pre-round per-site watermarks — the rewind point a
	// re-drive resets the transport to.
	Seqs []uint64
	// Cursor is the pre-round protocol cursor.
	Cursor uint64
}

// Applied closes an intent: the round's marks were acknowledged by
// every site, so the round can never need re-driving.
type Applied struct {
	// Round matches the intent it closes.
	Round uint64
	// Fingerprint is the canonical digest of the round's ∆V
	// (cfd.Delta.Fingerprint), pinning what the round did.
	Fingerprint uint64
	// Seqs are the post-round (post-mark) per-site watermarks.
	Seqs []uint64
	// Cursor is the post-round protocol cursor.
	Cursor uint64
}

// State is a recovered journal: the base plus the intent ledger.
// len(Applied) is len(Intents) or len(Intents)-1 — at most the last
// intent dangles.
type State struct {
	Base    *Base
	Intents []Intent
	Applied []Applied
}

// Pending returns the dangling intent — the round the previous driver
// died inside — or nil after a clean-boundary crash.
func (st *State) Pending() *Intent {
	if len(st.Intents) > len(st.Applied) {
		return &st.Intents[len(st.Intents)-1]
	}
	return nil
}

// Rounds returns the number of applied rounds the journal records.
func (st *State) Rounds() uint64 {
	if n := len(st.Applied); n > 0 {
		return st.Applied[n-1].Round
	}
	return st.Base.Round
}

// record is the on-disk union; exactly one pointer is set.
type record struct {
	Base    *Base
	Intent  *Intent
	Applied *Applied
}

// Store manages one driver's journal directory: the current epoch file,
// open for append.
type Store struct {
	dir   string
	epoch uint64 // current epoch; 0 = no journal yet
	log   *wal.Log
}

// Open prepares dir as a journal directory, creating it if needed, and
// probes writability so a misconfigured deployment fails at Open, not
// at the first batch.
func Open(dir string) (*Store, error) {
	if err := wal.ProbeDir(dir); err != nil {
		return nil, wrap(err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Epoch returns the current epoch (0 before the first Begin).
func (s *Store) Epoch() uint64 { return s.epoch }

func (s *Store) path(epoch uint64) string { return series.Path(s.dir, epoch) }

// Recover loads the newest epoch's state and reopens its file for
// append, truncated past any torn trailing record. (nil, nil) means an
// empty directory — a fresh deployment. Any other validation failure
// returns an error wrapping xerr.ErrJournalCorrupt; older epochs are
// never consulted (resuming from one would restart the driver behind
// the cluster). The store stays usable either way, positioned so the
// next epoch never collides with anything on disk.
func (s *Store) Recover() (*State, error) {
	epochs, err := series.Epochs(s.dir)
	if err != nil || len(epochs) == 0 {
		return nil, wrap(err)
	}
	s.epoch = epochs[0]
	path := s.path(s.epoch)
	st := &State{}
	log, err := format.Open(path, func(_, _ int64, payload []byte) error {
		var rec record
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			return format.Corruptf(path, "decode record: %v", err)
		}
		return st.fold(rec, path)
	})
	if err == nil && st.Base == nil {
		log.Close()
		err = format.Corruptf(path, "no base record")
	}
	if err != nil {
		return nil, wrap(err)
	}
	s.closeLog()
	s.log = log
	return st, nil
}

// Begin starts the journal's first epoch from base. Only valid on a
// store with no epoch yet (a fresh or Reset directory).
func (s *Store) Begin(base *Base) error {
	if s.log != nil || s.epoch != 0 {
		return fmt.Errorf("journal: Begin on a non-empty journal (epoch %d)", s.epoch)
	}
	return s.startEpoch(base)
}

// Compact folds the journal into a fresh epoch whose Base is the
// current driver state, then removes the old epoch. Durable against a
// crash at any point — the old epoch survives until the new one is
// fully on disk.
func (s *Store) Compact(base *Base) error {
	if s.log == nil {
		return fmt.Errorf("journal: Compact before Begin")
	}
	return s.startEpoch(base)
}

// startEpoch writes epoch+1 with the given base record via
// wal.Replace, switches appends to it, and removes the previous epoch's
// file.
func (s *Store) startEpoch(base *Base) error {
	epoch := s.epoch + 1
	payload, err := encodeRecord(record{Base: base})
	if err != nil {
		return err
	}
	log, err := format.Replace(s.path(epoch), func(l *wal.Log) error { return l.Append(payload) })
	if err != nil {
		return fmt.Errorf("journal: write base: %w", err)
	}
	s.closeLog()
	s.log = log
	prev := s.epoch
	s.epoch = epoch
	if prev > 0 {
		os.Remove(s.path(prev))
	}
	return nil
}

// Intent appends and flushes one intent record — returns only once the
// record is durable against process death, so the round's first wire
// call never races its own recoverability.
func (s *Store) Intent(it *Intent) error { return s.append(record{Intent: it}) }

// Applied appends and flushes one applied record, closing the round.
func (s *Store) Applied(ap *Applied) error { return s.append(record{Applied: ap}) }

func (s *Store) append(rec record) error {
	if s.log == nil {
		return fmt.Errorf("journal: append before Begin")
	}
	payload, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	if err := s.log.Append(payload); err != nil {
		return wrap(err)
	}
	if err := s.log.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	return nil
}

// Reset discards every journal file and returns the store to epoch 0 —
// the start-empty-on-corrupt path.
func (s *Store) Reset() error {
	s.closeLog()
	s.epoch = 0
	return wrap(wal.Reset(s.dir, series))
}

// Close flushes and closes the epoch file.
func (s *Store) Close() error {
	if s.log == nil {
		return nil
	}
	err := s.log.Flush()
	s.closeLog()
	return wrap(err)
}

// closeLog drops the epoch file without flushing it: it is being
// replaced or discarded.
func (s *Store) closeLog() {
	if s.log != nil {
		s.log.Close()
		s.log = nil
	}
}

func wrap(err error) error {
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

func encodeRecord(rec record) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&rec); err != nil {
		return nil, fmt.Errorf("journal: encode record: %w", err)
	}
	return buf.Bytes(), nil
}

// fold validates one record against the interleave invariant and
// appends it to the state.
func (st *State) fold(rec record, path string) error {
	set := 0
	if rec.Base != nil {
		set++
	}
	if rec.Intent != nil {
		set++
	}
	if rec.Applied != nil {
		set++
	}
	if set != 1 {
		return format.Corruptf(path, "record sets %d of base/intent/applied", set)
	}
	switch {
	case rec.Base != nil:
		if st.Base != nil {
			return format.Corruptf(path, "second base record")
		}
		st.Base = rec.Base
		return nil
	case st.Base == nil:
		return format.Corruptf(path, "record before base")
	case rec.Intent != nil:
		if len(st.Intents) > len(st.Applied) {
			return format.Corruptf(path, "intent for round %d while round %d is still open",
				rec.Intent.Round, st.Intents[len(st.Intents)-1].Round)
		}
		if want := st.Rounds() + 1; rec.Intent.Round != want {
			return format.Corruptf(path, "intent round %d, want %d", rec.Intent.Round, want)
		}
		st.Intents = append(st.Intents, *rec.Intent)
		return nil
	default:
		if len(st.Intents) == len(st.Applied) {
			return format.Corruptf(path, "applied round %d without an open intent", rec.Applied.Round)
		}
		if open := st.Intents[len(st.Intents)-1].Round; rec.Applied.Round != open {
			return format.Corruptf(path, "applied round %d closes intent round %d", rec.Applied.Round, open)
		}
		st.Applied = append(st.Applied, *rec.Applied)
		return nil
	}
}
