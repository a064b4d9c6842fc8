package centralized

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/xerr"
)

// Stored grouping indexes: the out-of-core backend for the per-rule
// equivalence groups the Fig. 4 case analysis reads and writes. One
// store record per (rule, X-key) holds the whole group — B-value
// classes and their member sets — so a unit update touches exactly the
// records of the rules its tuple matches: scan the record's class
// boundaries, run the same case analysis as the in-memory path on the
// class sizes, and splice the one id in or out of the encoded bytes —
// no decode, no sort, and the same bytes a full re-encode would write.
// The page cache turns a round's locality into one fault per warm page;
// Flush at round boundaries writes the dirty pages back.
//
// Keys are a stable big-endian uint32 rule tag followed by the raw
// length-prefixed X-key. Tags are assigned once when a rule enters
// force and never reused, so RemoveRules-style renumbering of the
// compiled-rule slice never invalidates stored keys; a retired rule's
// records are purged by tag prefix.

// Storage bundles the three stores of an out-of-core engine.
type Storage struct {
	Tuples   storage.Store
	Groups   storage.Store
	Postings storage.Store
}

// Close closes every open store, returning the first error. Safe on a
// partially populated Storage (nil stores are skipped).
func (s Storage) Close() error {
	var err error
	for _, st := range []storage.Store{s.Tuples, s.Groups, s.Postings} {
		if st == nil {
			continue
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// GroupPagerBits sizes group stores at 2^14 hash pages.
const GroupPagerBits = 14

// GroupKey appends the store key of (rule tag, X-key) to dst.
func GroupKey(dst []byte, tag uint32, xkey []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, tag)
	return append(dst, xkey...)
}

type storedGroups struct {
	st      storage.Store
	tags    []uint32 // per compiled rule; 0 for ConstRHS rules (no groups)
	nextTag uint32
	keyBuf  []byte
	encBuf  []byte
	classes []groupClass // scanGroup scratch
}

// addRule assigns the next stable tag (variable rules) or 0 (ConstRHS).
func (g *storedGroups) addRule(constRHS bool) {
	if constRHS {
		g.tags = append(g.tags, 0)
		return
	}
	g.nextTag++
	g.tags = append(g.tags, g.nextTag)
}

// Group record format: uvarint #classes; per class (sorted by B-value):
// uvarint len(b), b, uvarint #members, members as ascending uvarint ids.
// The format is canonical, so an insert or delete edits the encoded
// bytes directly: scanGroup indexes the class boundaries in one pass,
// and the splice copies the unchanged byte ranges around the one class
// header and the one id it rewrites.

// groupClass locates one B-value class inside an encoded group record.
type groupClass struct {
	start int // offset of the class's B-value length
	b0    int // offset of the B-value bytes
	cnt   int // offset of the member count (one past the B-value)
	ids   int // offset of the first member id
	end   int // offset one past the last member id
	n     int // member count
}

// bValue returns the class's B-value bytes.
func (c *groupClass) bValue(raw []byte) []byte { return raw[c.b0:c.cnt] }

// nextID decodes the member id at raw[p:]; p must lie inside a class
// that scanGroup validated.
func nextID(raw []byte, p int) (relation.TupleID, int) {
	u, w := binary.Uvarint(raw[p:])
	return relation.TupleID(u), p + w
}

// errGroup reports a malformed group record as store corruption.
func errGroup(format string, args ...any) error {
	return fmt.Errorf("centralized: "+format+": %w", append(args, xerr.ErrStoreCorrupt)...)
}

// scanGroup validates an encoded group record and indexes its classes
// into cls (reused); hdr is the length of the class-count header.
func scanGroup(cls []groupClass, raw []byte) (_ []groupClass, hdr int, err error) {
	nClasses, w := binary.Uvarint(raw)
	if w <= 0 {
		return cls, 0, errGroup("bad group class count")
	}
	hdr, p := w, w
	for c := uint64(0); c < nClasses; c++ {
		start := p
		blen, w := binary.Uvarint(raw[p:])
		if w <= 0 || blen > uint64(len(raw)-p-w) {
			return cls, 0, errGroup("bad group B-value frame")
		}
		b0 := p + w
		p = b0 + int(blen)
		n, w := binary.Uvarint(raw[p:])
		if w <= 0 {
			return cls, 0, errGroup("bad group member count")
		}
		cnt := p
		p += w
		ids := p
		for i := uint64(0); i < n; i++ {
			_, w := binary.Uvarint(raw[p:])
			if w <= 0 {
				return cls, 0, errGroup("bad group member id")
			}
			p += w
		}
		cls = append(cls, groupClass{start: start, b0: b0, cnt: cnt, ids: ids, end: p, n: int(n)})
	}
	if p != len(raw) {
		return cls, 0, errGroup("%d trailing bytes in group record", len(raw)-p)
	}
	return cls, hdr, nil
}

// findClass returns the index of the class holding b, or, when no
// class does (found=false), the index a new class for b takes.
func findClass(cls []groupClass, raw []byte, b string) (k int, found bool) {
	for k < len(cls) && string(cls[k].bValue(raw)) < b {
		k++
	}
	return k, k < len(cls) && string(cls[k].bValue(raw)) == b
}

// findID returns the offset of id within class c, or, when c does not
// hold it (found=false), the offset id is spliced in at.
func findID(raw []byte, c *groupClass, id relation.TupleID) (p int, found bool) {
	for p = c.ids; p < c.end; {
		m, next := nextID(raw, p)
		if m >= id {
			return p, m == id
		}
		p = next
	}
	return p, false
}

// spliceInsert appends to dst the record raw with id added to class k
// (found) or with a new class for b inserted at index k. An absent
// group is an empty raw with hdr 0.
func spliceInsert(dst, raw []byte, cls []groupClass, hdr, k int, found bool, b string, id relation.TupleID) []byte {
	if found {
		c := &cls[k]
		p, dup := findID(raw, c, id)
		if dup {
			return append(dst, raw...)
		}
		dst = append(dst, raw[:c.cnt]...)
		dst = binary.AppendUvarint(dst, uint64(c.n+1))
		dst = append(dst, raw[c.ids:p]...)
		dst = binary.AppendUvarint(dst, uint64(id))
		return append(dst, raw[p:]...)
	}
	at := len(raw)
	if k < len(cls) {
		at = cls[k].start
	}
	dst = binary.AppendUvarint(dst, uint64(len(cls)+1))
	dst = append(dst, raw[hdr:at]...)
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	dst = append(dst, b...)
	dst = binary.AppendUvarint(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(id))
	return append(dst, raw[at:]...)
}

// spliceDelete appends to dst the record raw with the id at offset p
// removed from class k, dropping the class when it empties. The caller
// deletes the record instead when its only class empties.
func spliceDelete(dst, raw []byte, cls []groupClass, hdr, k, p int) []byte {
	c := &cls[k]
	if c.n == 1 {
		dst = binary.AppendUvarint(dst, uint64(len(cls)-1))
		dst = append(dst, raw[hdr:c.start]...)
		return append(dst, raw[c.end:]...)
	}
	_, next := nextID(raw, p)
	dst = append(dst, raw[:c.cnt]...)
	dst = binary.AppendUvarint(dst, uint64(c.n-1))
	dst = append(dst, raw[c.ids:p]...)
	return append(dst, raw[next:]...)
}

// purgeRule deletes every record of the given tag (a retired rule).
// Group stores use a hash pager, so this is a filtered full scan — fine
// for the rare rule-retirement path.
func (g *storedGroups) purgeRule(tag uint32) error {
	var keys [][]byte
	err := g.st.Each(func(k, _ []byte) bool {
		if len(k) >= 4 && binary.BigEndian.Uint32(k[:4]) == tag {
			keys = append(keys, append([]byte(nil), k...))
		}
		return true
	})
	if err != nil {
		return err
	}
	for _, k := range keys {
		if err := g.st.Delete(k); err != nil {
			return err
		}
	}
	return nil
}

// NewIncrementalStored is NewIncremental with all three state planes —
// the maintained relation's tuples, the grouping indexes, and the
// violation postings — behind stores, so resident memory is bounded by
// the stores' page-cache budgets (plus the always-resident mark bitsets
// and tuple-id index) instead of |D|. The source rel is streamed in
// tuple by tuple; the stores must be empty.
func NewIncrementalStored(rel *relation.Relation, rules []cfd.CFD, st Storage) (*Incremental, error) {
	if err := cfd.ValidateAll(rel.Schema, rules); err != nil {
		return nil, err
	}
	mrel, err := relation.NewStored(rel.Schema, st.Tuples)
	if err != nil {
		return nil, err
	}
	if mrel.Len() != 0 {
		return nil, fmt.Errorf("centralized: stored engine requires an empty tuple store (%d tuples)", mrel.Len())
	}
	inc := &Incremental{
		rel:   mrel,
		rules: append([]cfd.CFD(nil), rules...),
		v:     cfd.NewViolations(),
		gst:   &storedGroups{st: st.Groups},
	}
	if err := inc.v.UseStoredPostings(st.Postings); err != nil {
		return nil, err
	}
	inc.v.InternRules(inc.rules)
	inc.comp = cfd.CompileAll(rel.Schema, inc.rules)
	for i := range inc.comp {
		inc.gst.addRule(inc.comp[i].ConstRHS)
	}
	rel.Each(func(t relation.Tuple) bool {
		var delta *cfd.Delta
		delta, err = inc.applyUnit(relation.Update{Kind: relation.Insert, Tuple: t})
		if err != nil {
			return false
		}
		delta.Apply(inc.v)
		return true
	})
	if err != nil {
		return nil, err
	}
	if err := inc.Flush(); err != nil {
		return nil, err
	}
	return inc, nil
}

// Stored reports whether the maintainer keeps its state behind stores.
func (inc *Incremental) Stored() bool { return inc.gst != nil }

// Flush writes back all dirty state to the stores — tuples, groups and
// postings — and is a no-op for the in-memory maintainer. Callers align
// it with protocol-round boundaries.
func (inc *Incremental) Flush() error {
	if inc.gst == nil {
		return nil
	}
	if err := inc.rel.Flush(); err != nil {
		return err
	}
	if err := inc.gst.st.Flush(); err != nil {
		return err
	}
	return inc.v.FlushPostings()
}

// StorageStats reports the per-store cache counters of a stored
// maintainer (zero Stats in memory mode).
func (inc *Incremental) StorageStats() map[string]storage.Stats {
	if inc.gst == nil {
		return nil
	}
	return map[string]storage.Stats{
		"tuples":   inc.rel.StoreStats(),
		"groups":   inc.gst.st.Stats(),
		"postings": inc.v.PostingStats(),
	}
}

// applyRuleStored is the stored-groups mirror of applyUnit's per-rule
// body: the identical Fig. 4 case analysis, reading class sizes off the
// scanned group record and splicing the update into its bytes.
func (inc *Incremental) applyRuleStored(i int, u relation.Update, delta *cfd.Delta) error {
	r := &inc.comp[i]
	g := inc.gst
	inc.keyBuf = u.Tuple.AppendKey(inc.keyBuf[:0], r.LHSCols)
	bVal := u.Tuple.Values[r.RHSCol]
	g.keyBuf = GroupKey(g.keyBuf[:0], g.tags[i], inc.keyBuf)
	raw, ok, err := g.st.Get(g.keyBuf)
	if err != nil {
		return err
	}
	cls, hdr := g.classes[:0], 0 // an absent group scans as no classes
	if ok {
		if cls, hdr, err = scanGroup(cls, raw); err != nil {
			return err
		}
	}
	g.classes = cls
	k, found := findClass(cls, raw, bVal)
	distinct := len(cls)

	switch u.Kind {
	case relation.Insert:
		classSize := 0
		if found {
			classSize = cls[k].n
		}
		// Fig. 4 incVIns case analysis.
		switch {
		case classSize > 0:
			if distinct >= 2 {
				delta.Add(u.Tuple.ID, r.ID)
			}
		case distinct >= 2:
			delta.Add(u.Tuple.ID, r.ID)
		case distinct == 1:
			delta.Add(u.Tuple.ID, r.ID)
			for p := cls[0].ids; p < cls[0].end; {
				var id relation.TupleID
				id, p = nextID(raw, p)
				delta.Add(id, r.ID)
			}
		}
		g.encBuf = spliceInsert(g.encBuf[:0], raw, cls, hdr, k, found, bVal, u.Tuple.ID)

	case relation.Delete:
		var p int
		if found {
			p, found = findID(raw, &cls[k], u.Tuple.ID)
		}
		if !found {
			return fmt.Errorf("centralized: tuple %d not indexed for rule %s", u.Tuple.ID, r.ID)
		}
		classSize := cls[k].n
		// Fig. 4 incVDel case analysis.
		switch {
		case classSize > 1:
			if distinct >= 2 {
				delta.Remove(u.Tuple.ID, r.ID)
			}
		case distinct-1 >= 2:
			delta.Remove(u.Tuple.ID, r.ID)
		case distinct-1 == 1:
			delta.Remove(u.Tuple.ID, r.ID)
			o := &cls[1-k]
			for q := o.ids; q < o.end; {
				var id relation.TupleID
				id, q = nextID(raw, q)
				delta.Remove(id, r.ID)
			}
		}
		if classSize == 1 && distinct == 1 {
			return g.st.Delete(g.keyBuf)
		}
		g.encBuf = spliceDelete(g.encBuf[:0], raw, cls, hdr, k, p)
	}
	return g.st.Put(g.keyBuf, g.encBuf)
}
