package storage

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/wal"
	"repro/internal/xerr"
)

// DiskStore file layout. One append-only internal/wal log per store
// (magic "RSTR", kind DiskOptions.Kind), each record:
//
//	page number  big-endian uint32 (4)
//	live count   big-endian uint32 (4)
//	page payload (see page.go; empty when count == 0 — a tombstone)
//
// The newest record for a page number wins; older records and applied
// tombstones are dead weight reclaimed by compaction (wal.Replace). A
// torn trailing record is truncated on open, as wal does for every log;
// any other damage fails open with xerr.ErrStoreCorrupt.

const (
	recPrefixLen = 8 // page number + live count
	// pageOverhead approximates the fixed in-memory cost of one cached
	// page beyond its records (struct, map header, list element).
	pageOverhead = 128
	// compactMinDead is the floor of reclaimable bytes below which
	// compaction is never worth a file rewrite.
	compactMinDead = 1 << 16
)

// DiskOptions configures a DiskStore.
type DiskOptions struct {
	// PageFor maps a key to its page number. Required. All keys of a
	// page are stored, cached, faulted and evicted together, so a good
	// pager clusters keys that are accessed together.
	PageFor func(key []byte) uint32
	// CacheBudget bounds the approximate decoded bytes of the page
	// cache; <= 0 means unlimited. Dirty pages are pinned until Flush,
	// so the cache can exceed the budget transiently within a round.
	CacheBudget int64
	// Monotone declares that PageFor is monotone in bytewise key order,
	// letting EachRange fault only pages that can intersect the range.
	Monotone bool
	// Kind is the header kind byte identifying what the store holds
	// (e.g. 'T' tuples, 'G' groups, 'P' postings). Zero means 'S'.
	Kind byte
}

type pageLoc struct {
	off   int64 // frame start offset in the data file
	rec   int64 // total framed record size (frame + payload)
	count int   // live records in the page
}

type page struct {
	no    uint32
	m     map[string][]byte
	size  int64 // approximate decoded bytes (records only)
	dirty bool
}

// DiskStore is the disk backend: a page-structured append-only file
// with an LRU cache of decoded pages under a byte budget. Safe for
// concurrent use.
type DiskStore struct {
	mu     sync.Mutex
	log    *wal.Log
	format wal.Format
	path   string
	opt    DiskOptions

	index map[uint32]pageLoc
	dead  int64 // bytes of superseded records and applied tombstones
	n     int   // live records across all pages

	cache    map[uint32]*list.Element // value: *page
	lru      *list.List               // front = most recently used
	resident int64
	dirty    int

	stats  Stats
	encBuf []byte
}

// OpenDisk opens (creating if absent) the data file at path. Reopening
// an existing file rebuilds the page index by scanning it, truncating a
// torn trailing record.
func OpenDisk(path string, opt DiskOptions) (*DiskStore, error) {
	if opt.PageFor == nil {
		return nil, errors.New("storage: DiskOptions.PageFor is required")
	}
	if opt.Kind == 0 {
		opt.Kind = 'S'
	}
	s := &DiskStore{
		format: wal.Format{Magic: "RSTR", Version: 1, Kind: opt.Kind, Corrupt: xerr.ErrStoreCorrupt},
		path:   path,
		opt:    opt,
		index:  make(map[uint32]pageLoc),
		cache:  make(map[uint32]*list.Element),
		lru:    list.New(),
	}
	log, err := s.format.Open(path, s.indexRecord)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	// A fresh header or a torn-tail truncation is made durable before
	// any page is indexed behind it.
	if err := log.Sync(); err != nil {
		log.Close()
		return nil, fmt.Errorf("storage: %w", err)
	}
	s.log = log
	return s, nil
}

// indexRecord folds one page record found by the open scan into the
// index, the newest record per page winning.
func (s *DiskStore) indexRecord(off, rec int64, payload []byte) error {
	if len(payload) < recPrefixLen {
		return s.format.Corruptf(s.path, "@%d: record shorter than its prefix", off)
	}
	no := binary.BigEndian.Uint32(payload[0:4])
	count := int(binary.BigEndian.Uint32(payload[4:8]))
	if old, ok := s.index[no]; ok {
		s.dead += old.rec
		s.n -= old.count
	}
	if count == 0 {
		delete(s.index, no)
		s.dead += rec // an applied tombstone is itself dead weight
	} else {
		s.index[no] = pageLoc{off: off, rec: rec, count: count}
		s.n += count
	}
	return nil
}

// fault returns the decoded page, serving from the cache or reading it
// from disk. With create=false an absent page returns (nil, nil).
// Caller holds s.mu.
func (s *DiskStore) fault(no uint32, create bool) (*page, error) {
	if el, ok := s.cache[no]; ok {
		s.lru.MoveToFront(el)
		s.stats.Hits++
		return el.Value.(*page), nil
	}
	s.stats.Misses++
	pg := &page{no: no, m: make(map[string][]byte)}
	if loc, ok := s.index[no]; ok {
		payload, err := s.log.Read(loc.off, loc.rec)
		if err != nil {
			return nil, fmt.Errorf("storage: page %d: %w", no, err)
		}
		if len(payload) < recPrefixLen || binary.BigEndian.Uint32(payload[0:4]) != no {
			return nil, fmt.Errorf("storage: %w", s.format.Corruptf(s.path, "page %d @%d: record/index mismatch", no, loc.off))
		}
		m, size, err := decodePage(payload[recPrefixLen:])
		if err != nil {
			return nil, fmt.Errorf("storage: %w", s.format.Corruptf(s.path, "page %d @%d: %v", no, loc.off, err))
		}
		pg.m, pg.size = m, size
		s.stats.Faults++
	} else if !create {
		return nil, nil
	}
	s.cache[no] = s.lru.PushFront(pg)
	s.resident += pg.size + pageOverhead
	return pg, nil
}

// evict drops clean pages from the LRU tail until the cache fits the
// budget. Dirty pages are pinned; Flush unpins them. Every clean page
// the walk passes is evicted, so the walk ends once no clean page is
// left (len(cache) == dirty) instead of crossing the pinned remainder
// of the list. Caller holds s.mu.
func (s *DiskStore) evict() {
	if s.opt.CacheBudget <= 0 {
		return
	}
	el := s.lru.Back()
	for el != nil && s.resident > s.opt.CacheBudget && len(s.cache) > s.dirty {
		prev := el.Prev()
		pg := el.Value.(*page)
		if !pg.dirty {
			s.lru.Remove(el)
			delete(s.cache, pg.no)
			s.resident -= pg.size + pageOverhead
			s.stats.Evictions++
		}
		el = prev
	}
}

func (s *DiskStore) Get(key []byte) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, err := s.fault(s.opt.PageFor(key), false)
	if err != nil || pg == nil {
		return nil, false, err
	}
	v, ok := pg.m[string(key)]
	s.evict()
	return v, ok, nil
}

func (s *DiskStore) Put(key, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, err := s.fault(s.opt.PageFor(key), true)
	if err != nil {
		return err
	}
	k := string(key)
	if old, ok := pg.m[k]; ok {
		pg.size += int64(len(val) - len(old))
		s.resident += int64(len(val) - len(old))
	} else {
		d := int64(len(k)+len(val)) + entryOverhead
		pg.size += d
		s.resident += d
		s.n++
	}
	pg.m[k] = append([]byte(nil), val...)
	if !pg.dirty {
		pg.dirty = true
		s.dirty++
	}
	s.evict()
	return nil
}

func (s *DiskStore) Delete(key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, err := s.fault(s.opt.PageFor(key), false)
	if err != nil || pg == nil {
		return err
	}
	k := string(key)
	if old, ok := pg.m[k]; ok {
		delete(pg.m, k)
		d := int64(len(k)+len(old)) + entryOverhead
		pg.size -= d
		s.resident -= d
		s.n--
		if !pg.dirty {
			pg.dirty = true
			s.dirty++
		}
	}
	s.evict()
	return nil
}

func (s *DiskStore) Each(fn func(key, val []byte) bool) error {
	return s.EachRange(nil, nil, fn)
}

func (s *DiskStore) EachRange(lo, hi []byte, fn func(key, val []byte) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Candidate pages: everything indexed on disk plus cached pages
	// that were never flushed.
	seen := make(map[uint32]struct{}, len(s.index)+len(s.cache))
	pages := make([]uint32, 0, len(s.index)+len(s.cache))
	add := func(no uint32) {
		if _, ok := seen[no]; !ok {
			seen[no] = struct{}{}
			pages = append(pages, no)
		}
	}
	for no := range s.index {
		add(no)
	}
	for no := range s.cache {
		add(no)
	}
	if s.opt.Monotone {
		// A monotone pager bounds the pages a key range can touch.
		filtered := pages[:0]
		var pLo, pHi uint32
		if lo != nil {
			pLo = s.opt.PageFor(lo)
		}
		if hi != nil {
			pHi = s.opt.PageFor(hi)
		}
		for _, no := range pages {
			if lo != nil && no < pLo {
				continue
			}
			if hi != nil && no > pHi {
				continue
			}
			filtered = append(filtered, no)
		}
		pages = filtered
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	keys := make([]string, 0, 64)
	for _, no := range pages {
		pg, err := s.fault(no, false)
		if err != nil {
			return err
		}
		if pg == nil {
			continue
		}
		keys = keys[:0]
		for k := range pg.m {
			if lo != nil && k < string(lo) {
				continue
			}
			if hi != nil && k >= string(hi) {
				continue
			}
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !fn([]byte(k), pg.m[k]) {
				s.evict()
				return nil
			}
		}
		s.evict()
	}
	return nil
}

func (s *DiskStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Flush appends every dirty page (tombstoning pages that became empty),
// fsyncs the file and unpins the flushed pages, then compacts when the
// dead-byte share warrants a rewrite. The engines call Flush at
// protocol-round boundaries, so within a round writes batch in memory.
func (s *DiskStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *DiskStore) flushLocked() error {
	if s.dirty == 0 {
		return nil
	}
	dirtyPages := make([]*page, 0, s.dirty)
	for _, el := range s.cache {
		if pg := el.Value.(*page); pg.dirty {
			dirtyPages = append(dirtyPages, pg)
		}
	}
	sort.Slice(dirtyPages, func(i, j int) bool { return dirtyPages[i].no < dirtyPages[j].no })
	for _, pg := range dirtyPages {
		old, onDisk := s.index[pg.no]
		if len(pg.m) == 0 && !onDisk {
			// Never persisted and now empty: nothing to write or
			// tombstone. Drop it from the cache entirely.
			s.dropPage(pg)
			continue
		}
		s.encBuf = s.encBuf[:0]
		s.encBuf = binary.BigEndian.AppendUint32(s.encBuf, pg.no)
		s.encBuf = binary.BigEndian.AppendUint32(s.encBuf, uint32(len(pg.m)))
		s.encBuf = encodePage(s.encBuf, pg.m)
		off := s.log.Size()
		if err := s.log.Append(s.encBuf); err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		rec := s.log.Size() - off
		if onDisk {
			s.dead += old.rec
		}
		if len(pg.m) == 0 {
			delete(s.index, pg.no)
			s.dead += rec // the tombstone itself
		} else {
			s.index[pg.no] = pageLoc{off: off, rec: rec, count: len(pg.m)}
		}
		s.stats.FlushedPages++
		s.stats.FlushedBytes += uint64(rec)
		pg.dirty = false
		s.dirty--
		if len(pg.m) == 0 {
			s.dropPage(pg)
		}
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	s.evict()
	return s.maybeCompact()
}

// dropPage removes a page from the cache without counting an eviction.
// Caller holds s.mu; the page must be clean.
func (s *DiskStore) dropPage(pg *page) {
	if el, ok := s.cache[pg.no]; ok {
		if pg.dirty {
			pg.dirty = false
			s.dirty--
		}
		s.lru.Remove(el)
		delete(s.cache, pg.no)
		s.resident -= pg.size + pageOverhead
	}
}

// maybeCompact rewrites the data file when dead bytes exceed both a
// fixed floor and the live bytes — the classic "over half the file is
// garbage" rule. Caller holds s.mu with no dirty pages outstanding.
func (s *DiskStore) maybeCompact() error {
	live := s.log.Size() - wal.HeaderLen - s.dead
	if s.dead < compactMinDead || s.dead <= live {
		return nil
	}
	return s.compactLocked()
}

// compactLocked rewrites the newest record of every live page into a
// fresh file with wal.Replace, so a crash at any point leaves either
// the old file or the new one, never a mix.
func (s *DiskStore) compactLocked() error {
	nos := make([]uint32, 0, len(s.index))
	for no := range s.index {
		nos = append(nos, no)
	}
	sort.Slice(nos, func(i, j int) bool { return nos[i] < nos[j] })
	newIndex := make(map[uint32]pageLoc, len(nos))
	log, err := s.format.Replace(s.path, func(nl *wal.Log) error {
		for _, no := range nos {
			loc := s.index[no]
			payload, err := s.log.Read(loc.off, loc.rec)
			if err != nil {
				return fmt.Errorf("page %d: %w", no, err)
			}
			newIndex[no] = pageLoc{off: nl.Size(), rec: loc.rec, count: loc.count}
			if err := nl.Append(payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("storage: compact: %w", err)
	}
	s.log.Close()
	s.log = log
	s.index = newIndex
	s.dead = 0
	s.stats.Compactions++
	return nil
}

func (s *DiskStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.ResidentPages = len(s.cache)
	st.ResidentBytes = s.resident
	st.DirtyPages = s.dirty
	if s.log != nil {
		st.DiskBytes = s.log.Size()
	}
	return st
}

func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.flushLocked()
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	s.log = nil
	return err
}

var (
	_ Store = (*MemStore)(nil)
	_ Store = (*DiskStore)(nil)
)
