package centralized

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/xerr"
)

// encodeGroup is the reference group-record encoder: the map-based,
// sort-everything codec the stored engine used before it spliced
// records in place. Every spliced record must equal its output byte
// for byte.
func encodeGroup(dst []byte, group map[string]map[relation.TupleID]struct{}) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(group)))
	bs := make([]string, 0, len(group))
	for b := range group {
		bs = append(bs, b)
	}
	sort.Strings(bs)
	var ids []relation.TupleID
	for _, b := range bs {
		dst = binary.AppendUvarint(dst, uint64(len(b)))
		dst = append(dst, b...)
		cls := group[b]
		dst = binary.AppendUvarint(dst, uint64(len(cls)))
		ids = ids[:0]
		for id := range cls {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			dst = binary.AppendUvarint(dst, uint64(id))
		}
	}
	return dst
}

// memStorage backs a stored maintainer with in-memory stores, so a test
// can read and plant group records directly.
func memStorage() Storage {
	return Storage{Tuples: storage.NewMem(), Groups: storage.NewMem(), Postings: storage.NewMem()}
}

// assertRecordsMatch checks that the stored maintainer's group store
// holds exactly the in-memory maintainer's groups, each record byte-equal
// to the reference encoding.
func assertRecordsMatch(t *testing.T, stored, mem *Incremental) {
	t.Helper()
	want := make(map[string][]byte)
	for i, byRule := range mem.groups {
		if mem.comp[i].ConstRHS {
			continue
		}
		for xkey, group := range byRule {
			want[string(GroupKey(nil, stored.gst.tags[i], []byte(xkey)))] = encodeGroup(nil, group)
		}
	}
	got := 0
	err := stored.gst.st.Each(func(k, v []byte) bool {
		got++
		w, ok := want[string(k)]
		if !ok {
			t.Errorf("stored record %x has no in-memory group", k)
		} else if !bytes.Equal(v, w) {
			t.Errorf("record %x:\n got  %x\n want %x", k, v, w)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != len(want) {
		t.Errorf("%d stored records, %d in-memory groups", got, len(want))
	}
}

// TestGroupSpliceCases walks one group of rule A→B through every splice
// shape: a new class at the front, middle and end; an id at the start,
// middle and end of a class; multi-byte uvarint ids; an emptied class
// and an emptied group. After every step the stored record must equal
// the reference encoding and V the in-memory maintainer's.
func TestGroupSpliceCases(t *testing.T) {
	schema := relation.MustSchema("R", "A", "B")
	rules := []cfd.CFD{{ID: "phi", LHS: []string{"A"}, RHS: "B", LHSPattern: []string{"_"}, RHSPattern: "_"}}
	rel := relation.New(schema)
	stored, err := NewIncrementalStored(rel, rules, memStorage())
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewIncremental(rel, rules)
	if err != nil {
		t.Fatal(err)
	}
	ins := func(id relation.TupleID, b string) relation.Update {
		return relation.Update{Kind: relation.Insert, Tuple: relation.Tuple{ID: id, Values: []string{"a", b}}}
	}
	del := func(id relation.TupleID) relation.Update {
		return relation.Update{Kind: relation.Delete, Tuple: relation.Tuple{ID: id}}
	}
	steps := []struct {
		name string
		u    relation.Update
	}{
		{"first class of a new group", ins(300, "m")},
		{"id at class end, 2-byte uvarint", ins(1<<14, "m")},
		{"id at class start", ins(5, "m")},
		{"id mid-class, 3-byte uvarint", ins(1<<20, "m")},
		{"id mid-class, 6-byte uvarint", ins(1<<40, "m")},
		{"new class at the front", ins(7, "c")},
		{"new class at the end", ins(8, "x")},
		{"new class in the middle", ins(1<<35, "g")},
		{"second member of a middle class", ins(2, "g")},
		{"delete from class start", del(5)},
		{"delete from mid-class", del(1 << 20)},
		{"delete from class end", del(1 << 40)},
		{"empty the front class", del(7)},
		{"empty the end class", del(8)},
		{"empty a class, leaving one", del(2)},
		{"empty the middle class", del(1 << 35)},
		{"shrink the last class", del(300)},
		{"empty the group", del(1 << 14)},
		{"recreate the group", ins(1, "m")},
	}
	for _, st := range steps {
		ul := relation.UpdateList{st.u}
		sd, err := stored.Apply(ul)
		if err != nil {
			t.Fatalf("%s: stored: %v", st.name, err)
		}
		md, err := mem.Apply(ul)
		if err != nil {
			t.Fatalf("%s: mem: %v", st.name, err)
		}
		if sd.Size() != md.Size() || !stored.Violations().Equal(mem.Violations()) {
			t.Fatalf("%s: ∆V or V diverged", st.name)
		}
		assertRecordsMatch(t, stored, mem)
		if t.Failed() {
			t.Fatalf("after %q", st.name)
		}
	}
}

// TestGroupSpliceMatchesReference drives random insert/delete batches
// — ids spanning one- to nine-byte uvarints, a small B domain so groups
// hold several classes — through a stored and an in-memory maintainer,
// asserting after every batch that every stored group record equals the
// reference encoding of the in-memory group byte for byte.
func TestGroupSpliceMatchesReference(t *testing.T) {
	schema := relation.MustSchema("R", "A", "B", "C")
	rules := []cfd.CFD{
		{ID: "ab", LHS: []string{"A"}, RHS: "B", LHSPattern: []string{"_"}, RHSPattern: "_"},
		{ID: "bc", LHS: []string{"B"}, RHS: "C", LHSPattern: []string{"_"}, RHSPattern: "_"},
		{ID: "const", LHS: []string{"A"}, RHS: "C", LHSPattern: []string{"a0"}, RHSPattern: "c0"},
	}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			randTuple := func(id relation.TupleID) relation.Tuple {
				return relation.Tuple{ID: id, Values: []string{
					fmt.Sprintf("a%d", rng.Intn(3)), fmt.Sprintf("b%d", rng.Intn(5)), fmt.Sprintf("c%d", rng.Intn(4))}}
			}
			used := make(map[relation.TupleID]bool)
			freshID := func() relation.TupleID {
				for {
					bits := min(7*(1+rng.Intn(9)), 62)
					id := relation.TupleID(rng.Int63n(1 << bits))
					if !used[id] {
						used[id] = true
						return id
					}
				}
			}
			rel := relation.New(schema)
			for i := 0; i < 30; i++ {
				rel.MustInsert(randTuple(freshID()))
			}
			stored, err := NewIncrementalStored(rel, rules, memStorage())
			if err != nil {
				t.Fatal(err)
			}
			mem, err := NewIncremental(rel, rules)
			if err != nil {
				t.Fatal(err)
			}
			assertRecordsMatch(t, stored, mem)
			for round := 0; round < 25; round++ {
				live := mem.Relation().IDs()
				var ul relation.UpdateList
				for i := 0; i < 1+rng.Intn(12); i++ {
					if len(live) == 0 || rng.Intn(2) == 0 {
						ul = append(ul, relation.Update{Kind: relation.Insert, Tuple: randTuple(freshID())})
						continue
					}
					k := rng.Intn(len(live))
					ul = append(ul, relation.Update{Kind: relation.Delete, Tuple: relation.Tuple{ID: live[k]}})
					live = append(live[:k], live[k+1:]...)
				}
				if _, err := stored.Apply(ul); err != nil {
					t.Fatalf("round %d: stored: %v", round, err)
				}
				if _, err := mem.Apply(ul); err != nil {
					t.Fatalf("round %d: mem: %v", round, err)
				}
				if !stored.Violations().Equal(mem.Violations()) {
					t.Fatalf("round %d: V diverged", round)
				}
				assertRecordsMatch(t, stored, mem)
				if t.Failed() {
					t.Fatalf("round %d", round)
				}
			}
		})
	}
}

// TestMalformedGroupRecordFailsBatch plants each malformed-record shape
// under a live group's key and checks the next batch touching that group
// fails with ErrStoreCorrupt instead of panicking or writing garbage.
func TestMalformedGroupRecordFailsBatch(t *testing.T) {
	schema := relation.MustSchema("R", "A", "B")
	rules := []cfd.CFD{{ID: "phi", LHS: []string{"A"}, RHS: "B", LHSPattern: []string{"_"}, RHSPattern: "_"}}
	cases := []struct {
		name string
		raw  []byte
	}{
		{"empty record", []byte{}},
		{"truncated class count", []byte{0x80}},
		{"class count beyond the record", []byte{2, 1, 'x', 1, 3}},
		{"B-value frame past the end", []byte{1, 9, 'x'}},
		{"missing member count", []byte{1, 1, 'x'}},
		{"truncated member count", []byte{1, 1, 'x', 0x80}},
		{"member count beyond the ids", []byte{1, 1, 'x', 3, 4, 5}},
		{"truncated member id", []byte{1, 1, 'x', 2, 4, 0x80}},
		{"overlong member id", append([]byte{1, 1, 'x', 1}, bytes.Repeat([]byte{0xff}, 11)...)},
		{"trailing bytes", []byte{1, 1, 'x', 1, 4, 9}},
	}
	for _, tc := range cases {
		for _, kind := range []relation.UpdateKind{relation.Insert, relation.Delete} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, kind), func(t *testing.T) {
				rel := relation.New(schema)
				rel.MustInsert(relation.Tuple{ID: 4, Values: []string{"a", "x"}})
				inc, err := NewIncrementalStored(rel, rules, memStorage())
				if err != nil {
					t.Fatal(err)
				}
				key := GroupKey(nil, inc.gst.tags[0], relation.Tuple{Values: []string{"a", "x"}}.AppendKey(nil, inc.comp[0].LHSCols))
				if _, ok, _ := inc.gst.st.Get(key); !ok {
					t.Fatal("group record not found under the computed key")
				}
				if err := inc.gst.st.Put(key, tc.raw); err != nil {
					t.Fatal(err)
				}
				u := relation.Update{Kind: kind, Tuple: relation.Tuple{ID: 4}}
				if kind == relation.Insert {
					u.Tuple = relation.Tuple{ID: 5, Values: []string{"a", "y"}}
				}
				_, err = inc.Apply(relation.UpdateList{u})
				if !errors.Is(err, xerr.ErrStoreCorrupt) {
					t.Fatalf("Apply over a malformed record: err = %v, want ErrStoreCorrupt", err)
				}
			})
		}
	}
}

// classesOf decodes a scanned record into (B-value, ids) pairs.
func classesOf(raw []byte, cls []groupClass) []string {
	out := make([]string, 0, len(cls))
	for i := range cls {
		c := &cls[i]
		s := fmt.Sprintf("%q:", c.bValue(raw))
		for p := c.ids; p < c.end; {
			var id relation.TupleID
			id, p = nextID(raw, p)
			s += fmt.Sprintf(" %d", id)
		}
		out = append(out, s)
	}
	return out
}

// FuzzGroupRecord feeds arbitrary bytes to the group-record scanner:
// each input either fails with ErrStoreCorrupt or scans into classes
// that a splice-in/splice-out round trip — of an id into the first
// class, and of a fresh class — restores exactly. Never a panic.
func FuzzGroupRecord(f *testing.F) {
	f.Add(encodeGroup(nil, map[string]map[relation.TupleID]struct{}{
		"x": {1: {}, 300: {}}, "y": {1 << 40: {}}}))
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Add([]byte{1, 1, 'x', 2, 4, 0x80})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{1, 0, 0x80, 0x00})
	f.Fuzz(func(t *testing.T, raw []byte) {
		cls, hdr, err := scanGroup(nil, raw)
		if err != nil {
			if !errors.Is(err, xerr.ErrStoreCorrupt) {
				t.Fatalf("untyped scan error: %v", err)
			}
			return
		}
		want := classesOf(raw, cls)
		rescan := func(rec []byte) ([]groupClass, int) {
			t.Helper()
			c, h, err := scanGroup(nil, rec)
			if err != nil {
				t.Fatalf("spliced record does not scan: %v", err)
			}
			return c, h
		}
		same := func(what string, out []byte) {
			t.Helper()
			c, _ := rescan(out)
			if got := classesOf(out, c); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s round trip: %v, want %v", what, got, want)
			}
		}
		const id = relation.TupleID(12345)
		// Round trip through a new class.
		k, found := findClass(cls, raw, "\xff\xfffuzz")
		if !found {
			in := spliceInsert(nil, raw, cls, hdr, k, false, "\xff\xfffuzz", id)
			inCls, inHdr := rescan(in)
			if len(inCls) != len(cls)+1 || inCls[k].n != 1 {
				t.Fatalf("new class: %d classes, want %d", len(inCls), len(cls)+1)
			}
			same("new-class", spliceDelete(nil, in, inCls, inHdr, k, inCls[k].ids))
		}
		// Round trip of an id through the first class (a memberless
		// class, never written by the engine, would be dropped).
		if len(cls) == 0 || cls[0].n == 0 {
			return
		}
		if _, dup := findID(raw, &cls[0], id); dup {
			return
		}
		in := spliceInsert(nil, raw, cls, hdr, 0, true, "", id)
		inCls, inHdr := rescan(in)
		if inCls[0].n != cls[0].n+1 {
			t.Fatalf("class size %d after insert, want %d", inCls[0].n, cls[0].n+1)
		}
		p, ok := findID(in, &inCls[0], id)
		if !ok {
			t.Fatal("inserted id not found")
		}
		same("id", spliceDelete(nil, in, inCls, inHdr, 0, p))
	})
}
