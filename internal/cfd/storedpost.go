package cfd

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/relation"
	"repro/internal/storage"
)

// Stored postings: the out-of-core backend for the per-rule posting
// index. The mark bitsets (markSet) stay memory-resident — they are the
// authoritative V and the 0-alloc warm path — while the postings, the
// redundant per-rule secondary index that dominates V's memory at
// scale, page to disk.
//
// Layout: one record per (rule, bucket), where bucket is
// tupleID >> PostBucketShift. The key is the interned rule index as a
// big-endian uint32 followed by the bucket as a big-endian uint64; the
// value is the bucket's tuple ids, ascending, uvarint-encoded. Rule
// indexes are stable for the lifetime of a Violations (ruleSpace only
// grows), so keys never need renumbering.
//
// Mutations land in a per-rule overlay (last write wins) with exact
// in-memory counts — markSet reports exactly which bits flip, so counts
// never need a store read. FlushPostings folds the overlay into the
// bucket records with read-modify-write, one store op per touched
// bucket; the engines call it at round boundaries, so a round's churn
// on one bucket costs one fault regardless of how many marks flipped.

const (
	// PostBucketShift groups 2^11 consecutive tuple ids per record.
	PostBucketShift = 11
	// postPageCap bounds bucket→page spread: PostPager saturates at
	// this many pages per rule (ids beyond bucket postPageCap-1 share
	// the last page — correctness is unaffected, pages just grow).
	postPageCap = 1 << 13
	postKeyLen  = 12
)

// PostKey appends the store key of (rule index, bucket) to dst.
func PostKey(dst []byte, idx RuleIdx, bucket uint64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(idx))
	return binary.BigEndian.AppendUint64(dst, bucket)
}

// PostPager is the monotone pager for posting stores: rule index in the
// high bits, bucket (saturated) in the low, so one rule's postings are
// a contiguous page range and EachRange over a rule prefix faults only
// that rule's pages.
func PostPager(key []byte) uint32 {
	var b [postKeyLen]byte
	copy(b[:], key)
	rule := binary.BigEndian.Uint32(b[0:4])
	bucket := binary.BigEndian.Uint64(b[4:12])
	if bucket > postPageCap-1 {
		bucket = postPageCap - 1
	}
	return rule*postPageCap + uint32(bucket)
}

type storedPost struct {
	st storage.Store
	// overlay[idx] holds the unflushed mark flips of rule idx: id →
	// true (mark set) / false (mark cleared). Last write wins, so an
	// overlay entry is always the mark's current state.
	overlay []map[relation.TupleID]bool
	// counts[idx] is the exact live posting count of rule idx,
	// maintained on every flip (markSet reports exact changes).
	counts []int

	keyBuf []byte
	encBuf []byte
	idsBuf []relation.TupleID
}

// UseStoredPostings switches v's posting index to st before any rule is
// interned or mark set. The store must be empty: marks are authoritative
// and memory-resident, so a stored posting file is rebuilt by reseeding,
// never trusted on its own.
func (v *Violations) UseStoredPostings(st storage.Store) error {
	if len(v.rs.names) > 0 || v.ms.lenTuples() > 0 {
		return fmt.Errorf("cfd: UseStoredPostings on a non-empty violation set")
	}
	if st.Len() != 0 {
		return fmt.Errorf("cfd: UseStoredPostings on a non-empty store (%d records)", st.Len())
	}
	v.sp = &storedPost{st: st}
	return nil
}

// StoredPostings reports whether the posting index lives behind a store.
func (v *Violations) StoredPostings() bool { return v.sp != nil }

// PostingStats reports the posting store's cache counters (zero in the
// default in-memory mode).
func (v *Violations) PostingStats() storage.Stats {
	if v.sp == nil {
		return storage.Stats{}
	}
	return v.sp.st.Stats()
}

// FlushPostings folds pending posting flips into the store and flushes
// it; a no-op in the default mode. Engines call it at round boundaries.
func (v *Violations) FlushPostings() error {
	if v.sp == nil {
		return nil
	}
	if err := v.sp.flush(); err != nil {
		return err
	}
	return v.sp.st.Flush()
}

// postLen is the number of interned rules' posting slots, across modes.
func (v *Violations) postLen() int {
	if v.sp != nil {
		return len(v.sp.counts)
	}
	return len(v.post)
}

// postCount is the live posting count of rule i, across modes.
func (v *Violations) postCount(i int) int {
	if v.sp != nil {
		return v.sp.counts[i]
	}
	return len(v.post[i])
}

func (sp *storedPost) internSlot() {
	sp.overlay = append(sp.overlay, nil)
	sp.counts = append(sp.counts, 0)
}

func (sp *storedPost) add(id relation.TupleID, idx RuleIdx) {
	if sp.overlay[idx] == nil {
		sp.overlay[idx] = make(map[relation.TupleID]bool, 8)
	}
	sp.overlay[idx][id] = true
	sp.counts[idx]++
}

func (sp *storedPost) remove(id relation.TupleID, idx RuleIdx) {
	if sp.overlay[idx] == nil {
		sp.overlay[idx] = make(map[relation.TupleID]bool, 8)
	}
	sp.overlay[idx][id] = false
	sp.counts[idx]--
}

// each materializes rule idx's posting set — store buckets merged with
// the overlay — then visits it. Materializing first keeps callbacks free
// to mutate v (RemoveRules-style collect loops) without re-entering the
// store.
func (sp *storedPost) each(idx RuleIdx, f func(relation.TupleID) bool) error {
	ids, err := sp.collect(idx)
	if err != nil {
		return err
	}
	// Detach the shared buffer while f runs, in case f nests another
	// posting query; reattach for reuse afterwards.
	sp.idsBuf = nil
	for _, id := range ids {
		if !f(id) {
			break
		}
	}
	sp.idsBuf = ids[:0]
	return nil
}

// collect returns rule idx's live posting ids, ascending, in a buffer
// reused across calls.
func (sp *storedPost) collect(idx RuleIdx) ([]relation.TupleID, error) {
	ov := sp.overlay[idx]
	// Overlay adds not yet seen in the store; deleted from as the store
	// pass visits them.
	fresh := make(map[relation.TupleID]struct{}, len(ov))
	for id, set := range ov {
		if set {
			fresh[id] = struct{}{}
		}
	}
	ids := sp.idsBuf[:0]
	lo := PostKey(nil, idx, 0)
	hi := PostKey(nil, idx+1, 0)
	var decodeErr error
	err := sp.st.EachRange(lo, hi, func(_, val []byte) bool {
		for len(val) > 0 {
			raw, w := binary.Uvarint(val)
			if w <= 0 {
				decodeErr = fmt.Errorf("bad id varint")
				return false
			}
			val = val[w:]
			id := relation.TupleID(raw)
			if set, pending := ov[id]; pending {
				if !set {
					continue // cleared since last flush
				}
				delete(fresh, id)
			}
			ids = append(ids, id)
		}
		return true
	})
	if err == nil {
		err = decodeErr
	}
	if err != nil {
		return nil, fmt.Errorf("cfd: posting scan rule %d: %w", idx, err)
	}
	for id := range fresh {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sp.idsBuf = ids
	return ids, nil
}

// flush folds every overlay entry into its bucket record. Each rule's
// flips are visited in ascending id order — so buckets in ascending
// order, and the store sees the same op sequence on every run — and
// merged linearly into the bucket's sorted id list.
func (sp *storedPost) flush() error {
	for idx, ov := range sp.overlay {
		if len(ov) == 0 {
			continue
		}
		flips := sp.idsBuf[:0]
		for id := range ov {
			flips = append(flips, id)
		}
		// uint64 order: ascending buckets, and within one bucket (all
		// ids share a sign) the records' ascending TupleID order.
		slices.SortFunc(flips, func(a, b relation.TupleID) int { return cmp.Compare(uint64(a), uint64(b)) })
		sp.idsBuf = flips
		for len(flips) > 0 {
			bucket := uint64(flips[0]) >> PostBucketShift
			n := 1
			for n < len(flips) && uint64(flips[n])>>PostBucketShift == bucket {
				n++
			}
			if err := sp.flushBucket(RuleIdx(idx), bucket, ov, flips[:n]); err != nil {
				return err
			}
			flips = flips[n:]
		}
		sp.overlay[idx] = nil
	}
	return nil
}

// flushBucket merges one bucket's sorted flips into its stored record,
// deleting the record when no id survives.
func (sp *storedPost) flushBucket(idx RuleIdx, bucket uint64, ov map[relation.TupleID]bool, flips []relation.TupleID) error {
	key := PostKey(sp.keyBuf[:0], idx, bucket)
	sp.keyBuf = key
	raw, _, err := sp.st.Get(key)
	if err != nil {
		return fmt.Errorf("cfd: posting flush rule %d bucket %d: %w", idx, bucket, err)
	}
	out := sp.encBuf[:0]
	for len(raw) > 0 || len(flips) > 0 {
		if len(raw) > 0 {
			u, w := binary.Uvarint(raw)
			if w <= 0 {
				return fmt.Errorf("cfd: posting flush rule %d bucket %d: bad id varint", idx, bucket)
			}
			if len(flips) == 0 || u < uint64(flips[0]) {
				out = binary.AppendUvarint(out, u)
				raw = raw[w:]
				continue
			}
			if u == uint64(flips[0]) {
				raw = raw[w:] // the flip below decides this id
			}
		}
		if f := flips[0]; ov[f] {
			out = binary.AppendUvarint(out, uint64(f))
		}
		flips = flips[1:]
	}
	sp.encBuf = out
	if len(out) == 0 {
		return sp.st.Delete(key)
	}
	return sp.st.Put(key, out)
}
