package journal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/wal"
	"repro/internal/xerr"
)

func testBase(round uint64) *Base {
	return &Base{
		SessionID:   []byte{1, 2, 3, 4, 5, 6, 7, 8},
		Kind:        "horizontal",
		Sites:       3,
		SchemaName:  "R",
		SchemaAttrs: []string{"a", "b"},
		Round:       round,
		Seqs:        []uint64{10, 11, 12},
		Cursor:      4,
		Rules:       []cfd.CFD{{ID: "r1", LHS: []string{"a"}, RHS: "b", LHSPattern: []string{"_"}, RHSPattern: "_"}},
		Tuples: []relation.Tuple{
			{ID: 1, Values: []string{"x", "y"}},
			{ID: 2, Values: []string{"x", "z"}},
		},
	}
}

func testIntent(round uint64) *Intent {
	return &Intent{
		Round: round,
		Op:    OpBatch,
		Updates: relation.UpdateList{
			{Kind: relation.Insert, Tuple: relation.Tuple{ID: relation.TupleID(100 + round), Values: []string{"p", "q"}}},
		},
		Seqs:   []uint64{10 + round, 11 + round, 12 + round},
		Cursor: 4 + round,
	}
}

// writeRounds populates dir with a base at round 0 plus n applied
// rounds (and optionally one dangling intent) through the public API.
func writeRounds(t *testing.T, dir string, n int, dangling bool) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Begin(testBase(0)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := st.Intent(testIntent(uint64(i))); err != nil {
			t.Fatal(err)
		}
		if err := st.Applied(&Applied{Round: uint64(i), Fingerprint: uint64(i) * 7, Seqs: []uint64{20, 21, 22}, Cursor: 9}); err != nil {
			t.Fatal(err)
		}
	}
	if dangling {
		if err := st.Intent(testIntent(uint64(n + 1))); err != nil {
			t.Fatal(err)
		}
	}
}

func recoverDir(t *testing.T, dir string) (*State, error) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	return st.Recover()
}

func epochFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no journal file in %s (err %v)", dir, err)
	}
	if len(matches) > 1 {
		t.Fatalf("expected one journal file, found %v", matches)
	}
	return matches[0]
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeRounds(t, dir, 3, true)

	st, err := recoverDir(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("recovered nil state")
	}
	if st.Base.Round != 0 || len(st.Intents) != 4 || len(st.Applied) != 3 {
		t.Fatalf("recovered base round %d, %d intents, %d applied", st.Base.Round, len(st.Intents), len(st.Applied))
	}
	if p := st.Pending(); p == nil || p.Round != 4 {
		t.Fatalf("pending = %+v, want round 4", p)
	}
	if st.Rounds() != 3 {
		t.Fatalf("Rounds() = %d, want 3", st.Rounds())
	}
	if got := st.Base.Tuples[1].Values[1]; got != "z" {
		t.Fatalf("base tuple values lost: %q", got)
	}
	if st.Applied[2].Fingerprint != 21 {
		t.Fatalf("applied fingerprint = %d, want 21", st.Applied[2].Fingerprint)
	}
}

func TestEmptyDirRecoversClean(t *testing.T) {
	st, err := recoverDir(t, t.TempDir())
	if err != nil || st != nil {
		t.Fatalf("empty dir: state %v, err %v", st, err)
	}
}

func TestCleanBoundaryHasNoPending(t *testing.T) {
	dir := t.TempDir()
	writeRounds(t, dir, 2, false)
	st, err := recoverDir(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending() != nil {
		t.Fatalf("clean boundary recovered a pending intent: %+v", st.Pending())
	}
	if st.Rounds() != 2 {
		t.Fatalf("Rounds() = %d, want 2", st.Rounds())
	}
}

func TestCompactionReplacesEpoch(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Begin(testBase(0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Intent(testIntent(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Applied(&Applied{Round: 1, Seqs: []uint64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(testBase(1)); err != nil {
		t.Fatal(err)
	}
	// The new epoch can still take appends, and only one file remains.
	if err := st.Intent(testIntent(2)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	name := filepath.Base(epochFile(t, dir))
	if !strings.Contains(name, "0000000000000002") {
		t.Fatalf("expected epoch-2 file, got %s", name)
	}
	rec, err := recoverDir(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Base.Round != 1 || len(rec.Applied) != 0 {
		t.Fatalf("compacted base round %d with %d applied, want 1 with 0", rec.Base.Round, len(rec.Applied))
	}
	if p := rec.Pending(); p == nil || p.Round != 2 {
		t.Fatalf("pending after compaction = %+v, want round 2", p)
	}
}

// TestCorruptJournals mirrors checkpoint's corruption suite: every
// damage shape beyond a torn trailing record must surface
// xerr.ErrJournalCorrupt, and a torn tail must recover the valid
// prefix.
func TestCorruptJournals(t *testing.T) {
	cases := []struct {
		name    string
		mangle  func(t *testing.T, dir string)
		corrupt bool
		// check runs on the recovered state when corrupt is false.
		check func(t *testing.T, st *State)
	}{
		{
			name: "torn-trailing-record",
			mangle: func(t *testing.T, dir string) {
				path := epochFile(t, dir)
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(path, fi.Size()-3); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, st *State) {
				// The dangling intent was the torn record: the valid
				// prefix is the 2 applied rounds.
				if len(st.Intents) != 2 || len(st.Applied) != 2 || st.Pending() != nil {
					t.Fatalf("torn tail recovered %d intents, %d applied, pending %v",
						len(st.Intents), len(st.Applied), st.Pending())
				}
			},
		},
		{
			name: "crc-flip-mid-file",
			mangle: func(t *testing.T, dir string) {
				path := epochFile(t, dir)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				// Flip a byte inside the first record's payload (file
				// header + frame header + 5): a mid-file CRC failure,
				// not a torn tail.
				data[wal.HeaderLen+8+5] ^= 0xff
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			corrupt: true,
		},
		{
			name: "version-bump",
			mangle: func(t *testing.T, dir string) {
				path := epochFile(t, dir)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[4] = FormatVersion + 1
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			corrupt: true,
		},
		{
			name: "bad-magic",
			mangle: func(t *testing.T, dir string) {
				path := epochFile(t, dir)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[0] = 'X'
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			corrupt: true,
		},
		{
			name: "truncated-header",
			mangle: func(t *testing.T, dir string) {
				if err := os.Truncate(epochFile(t, dir), 3); err != nil {
					t.Fatal(err)
				}
			},
			corrupt: true,
		},
		{
			name: "mixed-epoch-newest-corrupt",
			mangle: func(t *testing.T, dir string) {
				// A valid older epoch must NOT rescue a damaged newest
				// one: resuming from it would restart the driver behind
				// the cluster. Fabricate an older epoch by copying the
				// valid file down an epoch, then damage the newest.
				path := epochFile(t, dir)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				older := filepath.Join(dir, "journal-0000000000000000.wal")
				if err := os.WriteFile(older, data, 0o644); err != nil {
					t.Fatal(err)
				}
				data = append([]byte(nil), data...)
				data[wal.HeaderLen+8+5] ^= 0xff
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			corrupt: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeRounds(t, dir, 2, true)
			tc.mangle(t, dir)
			st, err := recoverDir(t, dir)
			if tc.corrupt {
				if !errors.Is(err, xerr.ErrJournalCorrupt) {
					t.Fatalf("err = %v, want ErrJournalCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, st)
		})
	}
}

// TestInterleaveViolationsAreCorrupt pins the strict ledger grammar:
// records out of base → (intent, applied)* order fail validation even
// when every frame's CRC is intact.
func TestInterleaveViolationsAreCorrupt(t *testing.T) {
	writeRaw := func(t *testing.T, dir string, recs []record) {
		t.Helper()
		f, err := os.Create(filepath.Join(dir, "journal-0000000000000001.wal"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := format.WriteHeader(f); err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			payload, err := encodeRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := wal.WriteFrame(f, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name string
		recs []record
	}{
		{"intent-before-base", []record{{Intent: testIntent(1)}}},
		{"double-base", []record{{Base: testBase(0)}, {Base: testBase(0)}}},
		{"applied-without-intent", []record{{Base: testBase(0)}, {Applied: &Applied{Round: 1}}}},
		{"two-open-intents", []record{{Base: testBase(0)}, {Intent: testIntent(1)}, {Intent: testIntent(2)}}},
		{"round-gap", []record{{Base: testBase(0)}, {Intent: testIntent(5)}}},
		{"applied-wrong-round", []record{{Base: testBase(0)}, {Intent: testIntent(1)}, {Applied: &Applied{Round: 2}}}},
		{"empty-file-no-base", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeRaw(t, dir, tc.recs)
			if _, err := recoverDir(t, dir); !errors.Is(err, xerr.ErrJournalCorrupt) {
				t.Fatalf("err = %v, want ErrJournalCorrupt", err)
			}
		})
	}
}

// TestAppendContinuesAfterRecover pins that a recovered journal keeps
// taking appends at the right position (the torn tail is truncated
// before the file is reopened for append).
func TestAppendContinuesAfterRecover(t *testing.T) {
	dir := t.TempDir()
	writeRounds(t, dir, 1, true)
	// Tear the dangling intent.
	path := epochFile(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Pending() != nil {
		t.Fatalf("torn intent survived: %+v", rec.Pending())
	}
	if err := st.Intent(testIntent(2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Applied(&Applied{Round: 2, Seqs: []uint64{30, 31, 32}}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	rec2, err := recoverDir(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Rounds() != 2 || rec2.Pending() != nil {
		t.Fatalf("after re-append: rounds %d, pending %v", rec2.Rounds(), rec2.Pending())
	}
}

func TestBeginRejectsNonEmpty(t *testing.T) {
	dir := t.TempDir()
	writeRounds(t, dir, 1, false)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := st.Begin(testBase(0)); err == nil {
		t.Fatal("Begin on a recovered journal succeeded")
	}
}

func TestResetStartsEmpty(t *testing.T) {
	dir := t.TempDir()
	writeRounds(t, dir, 2, true)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := st.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := st.Begin(testBase(0)); err != nil {
		t.Fatalf("Begin after Reset: %v", err)
	}
	rec, err := recoverDir(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Rounds() != 0 || len(rec.Intents) != 0 {
		t.Fatalf("after reset+begin: %+v", rec)
	}
}
