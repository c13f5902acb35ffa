package storage

import (
	"fmt"
	"sync/atomic"
	"time"

	"vats/internal/btree"
	"vats/internal/buffer"
)

// Multi-version concurrency: every key's NEWEST version stays inlined in
// its slotted-page row (so a point read is one page read), and each
// write pushes the superseded inline image into an append-only
// per-table version arena.
//
// The clustered index maps a key to a stable per-row slot id; only
// inserting or removing a key changes the tree. The slot (rowSlot) holds
// the key's mutable version words: where the newest version lives, its
// timestamp, whether it is a tombstone, and the head of the chain of
// older versions. Stamping, updating and GC rewrite those words in place
// under a per-slot seqlock, so they neither allocate nor path-copy the
// copy-on-write tree; lock-free readers copy the words between two
// agreeing loads of the slot's sequence and so never see a torn meta.
//
// Timestamps come from the table's mvcc.Clock. A committed version's ts
// is its commit timestamp; an in-flight transactional write holds a
// marker (uncommittedBit | txnID) until StampCommit/StampAbort resolves
// it. Visibility at snapshot timestamp r is a pure comparison: the
// newest version with committed ts <= r. The clock's contiguous
// watermark guarantees that any r handed to a reader covers only
// fully-stamped commits, so snapshot reads take no locks and never
// block (or are blocked by) writers.
//
// Garbage collection is epoch-based: versions superseded at or below the
// low-water read timestamp (min over active snapshot readers) are
// unreachable by every present and future reader and are freed in
// place; fully-dead arena chunks are dropped wholesale.

// uncommittedBit marks a version timestamp as an in-flight writer's
// marker; the low bits then carry the writer (transaction) id.
const uncommittedBit = 1 << 63

func tsCommitted(ts uint64) bool { return ts&uncommittedBit == 0 }

// writeMarker is the timestamp an in-flight transactional write installs
// until commit stamps it.
func writeMarker(wid uint64) uint64 { return uncommittedBit | wid }

// rowMeta is a key's version words as copied out of its slot: where the
// newest version lives, its (commit or marker) timestamp, whether it is
// a deletion tombstone, and the arena index (1-based; 0 = none) of the
// next-older version.
type rowMeta struct {
	rid   RID
	ts    uint64
	older uint32
	tomb  bool
}

// rowSlot holds one key's version words. Writers hold the table mutex
// (and, for transactional writes, the row's exclusive lock) and rewrite
// the words between two increments of seq; a page change that must
// agree with the words (an in-place overwrite, a tombstoned page slot)
// happens inside the same window. Readers outside the mutex use load.
// key tags the slot with the key it serves: a slot freed when its key
// leaves the index is reused for other keys, and a reader holding the
// id from an older index snapshot detects that through the tag. Every
// word is atomic, so the seqlock is visible to the race detector, and
// the struct is pointer-free, so slot chunks are never scanned by the
// garbage collector.
type rowSlot struct {
	seq   atomic.Uint32 // odd while a writer rewrites the words
	older atomic.Uint32
	key   atomic.Uint64
	loc   atomic.Uint64 // page number<<17 | page slot<<1 | tomb
	ts    atomic.Uint64
}

// freedMeta is what a freed slot holds: a tombstone at timestamp 0,
// which every reader (read-committed or at any snapshot) resolves to
// "not found" — the answer for a key that has left the index.
var freedMeta = rowMeta{tomb: true}

func (s *rowSlot) begin() { s.seq.Add(1) }
func (s *rowSlot) end()   { s.seq.Add(1) }

// set writes the words; the caller brackets it with begin/end.
func (s *rowSlot) set(m rowMeta) {
	loc := m.rid.Page.No<<17 | uint64(m.rid.Slot)<<1
	if m.tomb {
		loc |= 1
	}
	s.loc.Store(loc)
	s.ts.Store(m.ts)
	s.older.Store(m.older)
}

// store rewrites the words as one seqlock write.
func (s *rowSlot) store(m rowMeta) {
	s.begin()
	s.set(m)
	s.end()
}

// meta decodes the words. Without the table mutex the result may be
// torn; lock-free readers use load.
func (s *rowSlot) meta(space uint32) rowMeta {
	loc := s.loc.Load()
	return rowMeta{
		rid:   RID{Page: buffer.PageID{Space: space, No: loc >> 17}, Slot: int(loc>>1) & 0xffff},
		ts:    s.ts.Load(),
		older: s.older.Load(),
		tomb:  loc&1 != 0,
	}
}

// load copies the words without the table mutex. ok is false when a
// writer was rewriting them during the copy. Otherwise tag is the key
// the slot served at that moment, and seq names the copied state: it
// changes with every rewrite, so a later seq.Load() equal to it proves
// the words (and any page change made inside a rewrite) are unchanged.
func (s *rowSlot) load(space uint32) (m rowMeta, tag uint64, seq uint32, ok bool) {
	seq = s.seq.Load()
	if seq&1 != 0 {
		return m, 0, seq, false
	}
	tag = s.key.Load()
	m = s.meta(space)
	return m, tag, seq, s.seq.Load() == seq
}

const (
	slotChunkBits = 9
	slotChunkSize = 1 << slotChunkBits
	slotChunkMask = slotChunkSize - 1
)

type slotChunk [slotChunkSize]rowSlot

// slotStore hands out rowSlots by id. Allocation, release and chunk
// growth happen under the table mutex; readers resolve ids lock-free
// through the atomically published chunk list (an id read from the
// published index is always covered: the chunk list is published
// before the id).
type slotStore struct {
	chunks atomic.Pointer[[]*slotChunk]
	n      uint32   // ids ever handed out
	free   []uint32 // released ids, reused LIFO
}

func (s *slotStore) at(id uint32) *rowSlot {
	chunks := *s.chunks.Load()
	return &chunks[id>>slotChunkBits][id&slotChunkMask]
}

// alloc returns the id of a slot now serving key with words m. Caller
// holds the table mutex.
func (s *slotStore) alloc(key uint64, m rowMeta) uint32 {
	var id uint32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		id = s.n
		s.n++
		var chunks []*slotChunk
		if p := s.chunks.Load(); p != nil {
			chunks = *p
		}
		if int(id>>slotChunkBits) == len(chunks) {
			// Appending may write the shared backing array, but only
			// past every published length, where no reader looks.
			next := append(chunks, new(slotChunk))
			s.chunks.Store(&next)
		}
	}
	sl := s.at(id)
	sl.begin()
	sl.key.Store(key)
	sl.set(m)
	sl.end()
	return id
}

// release frees a slot whose key has just left the index. Caller holds
// the table mutex. A reader that still holds the id sees either the
// freed words (not found) or another key's tag; either way it never
// returns another key's row.
func (s *slotStore) release(id uint32) {
	s.at(id).store(freedMeta)
	s.free = append(s.free, id)
}

// version is one superseded row image in the arena. All fields except
// older are immutable after publication; older is truncated (to 0) by
// GC on the boundary version and is read by aborting transactions and
// chain walks, hence atomic.
type version struct {
	ts    uint64
	older atomic.Uint32
	row   []byte
	tomb  bool
}

const (
	versionChunkBits = 8
	versionChunkSize = 1 << versionChunkBits
	versionChunkMask = versionChunkSize - 1
)

type versionChunk [versionChunkSize]version

// versionArena is the append-only store for superseded versions.
// Appends and frees happen under the table mutex; readers resolve
// indexes lock-free through the atomically-published chunk list (a
// version index read from slot words is always covered: the arena
// write happens-before the words that point at it are stored).
type versionArena struct {
	chunks atomic.Pointer[[]*versionChunk]

	// Writer-owned bookkeeping (table mutex).
	n          uint32   // versions ever appended
	chunkFreed []uint16 // freed slots per chunk, to drop dead chunks

	// Gauges, readable without the table mutex.
	live  atomic.Int64 // appended minus freed
	bytes atomic.Int64 // sum of live row bytes
}

// push appends a version and returns its 1-based index. Caller holds
// the table mutex; row must be an exclusively-owned copy.
func (a *versionArena) push(ts uint64, row []byte, tomb bool, older uint32) uint32 {
	ci, off := int(a.n>>versionChunkBits), int(a.n&versionChunkMask)
	var chunks []*versionChunk
	if p := a.chunks.Load(); p != nil {
		chunks = *p
	}
	if ci == len(chunks) {
		next := make([]*versionChunk, len(chunks)+1)
		copy(next, chunks)
		next[ci] = new(versionChunk)
		a.chunks.Store(&next)
		chunks = next
		a.chunkFreed = append(a.chunkFreed, 0)
	}
	v := &chunks[ci][off]
	v.ts, v.row, v.tomb = ts, row, tomb
	v.older.Store(older)
	a.n++
	a.live.Add(1)
	a.bytes.Add(int64(len(row)))
	return a.n
}

// get resolves a 1-based version index. Safe lock-free for indexes
// reached through published metadata.
func (a *versionArena) get(idx uint32) *version {
	idx--
	chunks := *a.chunks.Load()
	return &chunks[idx>>versionChunkBits][idx&versionChunkMask]
}

// free releases one unreachable version. Caller holds the table mutex.
func (a *versionArena) free(idx uint32) {
	v := a.get(idx)
	a.bytes.Add(-int64(len(v.row)))
	v.row = nil
	a.live.Add(-1)
	ci := (idx - 1) >> versionChunkBits
	a.chunkFreed[ci]++
	if a.chunkFreed[ci] == versionChunkSize {
		// Every slot in the chunk is dead: drop the chunk pointer so the
		// whole block becomes collectible. No reader dereferences a freed
		// slot, so none loads this element again and it is cleared in
		// place.
		(*a.chunks.Load())[ci] = nil
	}
}

// limboRef parks a version popped off a chain by an aborting
// transaction: a reader that copied the slot words before the abort may
// still walk its chain into the version, so it can only be freed once
// every reader registered at or below safeAt has finished.
type limboRef struct {
	idx    uint32
	safeAt uint64
}

// MVCCStats is a point-in-time summary of a table's version store.
type MVCCStats struct {
	Versions   int64 // live arena versions (including limbo)
	ArenaBytes int64 // live arena row bytes
	ChainWalks int64 // snapshot reads that left the inline fast path
	ChainSteps int64 // total chain entries inspected by those walks
	Limbo      int   // versions parked by aborts, awaiting reclaim
	GCRuns     int64
	GCFreed    int64 // versions freed over the table's lifetime
}

// MVCCStats returns version-store gauges. Lock-free except Limbo.
func (t *Table) MVCCStats() MVCCStats {
	t.mu.RLock()
	limbo := len(t.limbo)
	t.mu.RUnlock()
	return MVCCStats{
		Versions:   t.arena.live.Load(),
		ArenaBytes: t.arena.bytes.Load(),
		ChainWalks: t.walks.Load(),
		ChainSteps: t.walkSteps.Load(),
		Limbo:      limbo,
		GCRuns:     t.gcRuns.Load(),
		GCFreed:    t.gcFreed.Load(),
	}
}

// noteHistoryLocked records that key now has history (a chain or a
// tombstone) so GC will visit it. Caller holds t.mu.
func (t *Table) noteHistoryLocked(key uint64) {
	if t.hist == nil {
		t.hist = make(map[uint64]struct{})
	}
	t.hist[key] = struct{}{}
}

// StampCommit resolves key's write marker to commit timestamp cts. The
// engine calls it for every written key after the WAL made the
// transaction durable and before the clock completes cts; idempotent
// (a key the transaction did not leave a marker on is untouched).
func (t *Table) StampCommit(wid, key, cts uint64) {
	m := writeMarker(wid)
	t.mu.Lock()
	if id, meta, ok := t.slotOf(key); ok && meta.ts == m {
		meta.ts = cts
		t.slots.at(id).store(meta)
	}
	t.mu.Unlock()
	t.noteCommit(cts)
}

// StampAbort restores key's pre-transaction version words after the
// engine's undo pass rewrote the row image back. The chain head (the
// version the transaction's first write pushed) is popped back inline;
// the popped arena slot is parked in limbo until no reader that copied
// the pre-abort words can still walk into it.
func (t *Table) StampAbort(wid, key uint64) {
	m := writeMarker(wid)
	t.mu.Lock()
	defer t.mu.Unlock()
	id, meta, ok := t.slotOf(key)
	if !ok || meta.ts != m {
		return
	}
	if meta.older == 0 {
		// An aborted fresh insert. The engine's undo pass deletes these
		// before stamping, so this is defensive: drop the dangling key.
		t.dropKeyLocked(key, id)
		if !meta.tomb {
			t.live.Add(-1)
		}
		delete(t.hist, key)
		return
	}
	v := t.arena.get(meta.older)
	restored := rowMeta{rid: meta.rid, ts: v.ts, older: v.older.Load(), tomb: v.tomb}
	t.slots.at(id).store(restored)
	t.limbo = append(t.limbo, limboRef{idx: meta.older, safeAt: t.clock.ReadTS()})
	if restored.older == 0 && !restored.tomb {
		delete(t.hist, key)
	}
}

// newestTS is the readTS that asks resolve for the newest inline
// version whatever its timestamp (the read-committed Get and Scan).
const newestTS = ^uint64(0)

// inlineVisible reports whether the inline version described by m is
// the one a reader at readTS resolves (tombstone or not); otherwise the
// visible version, if any, is on the chain.
func inlineVisible(m rowMeta, readTS uint64) bool {
	return readTS == newestTS || tsCommitted(m.ts) && m.ts <= readTS
}

// resolveKey is resolve for a key whose slot id is not yet known.
func (t *Table) resolveKey(h *buffer.Handle, key, readTS uint64, buf []byte) ([]byte, bool, error) {
	id, ok := t.index.Get(key)
	if !ok {
		return buf, false, nil
	}
	return t.resolve(h, key, id, readTS, buf)
}

// resolve appends the row image of key visible at readTS to buf; id is
// the slot the index mapped key to (possibly in an older index
// snapshot). found is false when the key has no visible non-tombstone
// version. The slot words are copied under the seqlock and an inline
// image is accepted only if the words are unchanged after the page
// read, so the bytes and the timestamp always belong to one version. A
// reader that keeps losing races with writers falls back to the shared
// lock.
func (t *Table) resolve(h *buffer.Handle, key uint64, id uint32, readTS uint64, buf []byte) (out []byte, found bool, err error) {
	s := t.slots.at(id)
	for attempt := 0; attempt < optimisticRetries; attempt++ {
		m, tag, seq, ok := s.load(t.space)
		if !ok {
			continue // a writer is mid-rewrite
		}
		if tag != key {
			// The slot was freed (its key left the index) and reused
			// since the index lookup.
			return buf, false, nil
		}
		if !inlineVisible(m, readTS) {
			return t.walkChain(m.older, readTS, buf)
		}
		if m.tomb {
			return buf, false, nil
		}
		got, ok, err := t.readInto(h, m.rid, buf)
		if err != nil {
			return buf, false, err
		}
		if ok && s.seq.Load() == seq {
			return got, true, nil
		}
		// The version moved on during the page read; replay.
	}
	return t.resolveLocked(h, key, readTS, buf)
}

// resolveLocked is resolve under the shared lock, which excludes every
// writer (all write paths hold t.mu exclusively).
func (t *Table) resolveLocked(h *buffer.Handle, key uint64, readTS uint64, buf []byte) ([]byte, bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, m, ok := t.slotOf(key)
	if !ok {
		return buf, false, nil
	}
	if !inlineVisible(m, readTS) {
		return t.walkChain(m.older, readTS, buf)
	}
	if m.tomb {
		return buf, false, nil
	}
	got, ok, err := t.readInto(h, m.rid, buf)
	if err != nil {
		return buf, false, err
	}
	if !ok {
		return buf, false, fmt.Errorf("storage %s: key %d: visible version has dead slot", t.name, key)
	}
	return got, true, nil
}

// walkChain finds the newest chain version at or below readTS, starting
// at arena index idx. Chain entries are immutable and the walk never
// reaches a GC-freed slot: every entry it inspects has ts above the
// low-water mark (readTS >= low water for any registered reader), and
// GC only frees strictly below the per-chain keep boundary.
func (t *Table) walkChain(idx uint32, readTS uint64, buf []byte) ([]byte, bool, error) {
	start := time.Now()
	steps := int64(0)
	out, found := buf, false
	for idx != 0 {
		v := t.arena.get(idx)
		steps++
		if v.ts <= readTS {
			if !v.tomb {
				out, found = append(buf, v.row...), true
			}
			break
		}
		idx = v.older.Load()
	}
	t.walks.Add(1)
	t.walkSteps.Add(steps)
	t.mv.Walk(steps, time.Since(start))
	return out, found, nil
}

// SnapshotGet returns a copy of the row visible at readTS.
func (t *Table) SnapshotGet(h *buffer.Handle, key, readTS uint64) ([]byte, error) {
	out, err := t.SnapshotGetInto(h, key, readTS, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SnapshotGetInto appends the row visible at readTS to buf. It takes no
// locks on the fast path (the newest-version-inline case is the same
// lock-free page read GetInto does), never blocks writers, and returns
// ErrKeyNotFound when the key has no visible version. readTS must come
// from the table clock's BeginRead (or be <= its ReadTS watermark).
func (t *Table) SnapshotGetInto(h *buffer.Handle, key, readTS uint64, buf []byte) ([]byte, error) {
	out, found, err := t.resolveKey(h, key, readTS, buf)
	if err != nil {
		return buf, err
	}
	if !found {
		return buf, ErrKeyNotFound
	}
	return out, nil
}

// SnapIter streams the rows visible at a snapshot timestamp over a key
// range, in key order. It is single-use and not safe for concurrent
// use; the row slice returned by Next is reused across calls. It holds
// no locks between or during calls — writers are never blocked.
type SnapIter struct {
	t      *Table
	h      *buffer.Handle
	readTS uint64
	it     btree.RangeIter[uint32]
	buf    []byte
	err    error
}

// NewSnapshotIter returns an iterator over the rows with keys in
// [lo, hi] visible at readTS. The key enumeration is frozen at the
// index root published now (every key committed at or below readTS is
// in it); each key's version is resolved from its slot's current words
// when Next reaches it, so the result equals the state at readTS
// regardless of concurrent writers.
func (t *Table) NewSnapshotIter(h *buffer.Handle, lo, hi, readTS uint64) *SnapIter {
	return &SnapIter{t: t, h: h, readTS: readTS, it: t.index.NewRangeIter(lo, hi)}
}

// Next returns the next visible row. The returned slice is only valid
// until the following Next call. ok=false ends the scan; check Err.
func (it *SnapIter) Next() (key uint64, row []byte, ok bool) {
	if it.err != nil {
		return 0, nil, false
	}
	for {
		k, id, more := it.it.Next()
		if !more {
			return 0, nil, false
		}
		out, found, err := it.t.resolve(it.h, k, id, it.readTS, it.buf[:0])
		if err != nil {
			it.err = err
			return 0, nil, false
		}
		if !found {
			continue
		}
		it.buf = out
		return k, out, true
	}
}

// Err returns the first error the scan hit (nil on clean exhaustion).
func (it *SnapIter) Err() error { return it.err }

// SnapshotScan calls fn for every key in [lo, hi] visible at readTS,
// ascending, until fn returns false. Row images are only valid during
// the callback. Unlike Scan (read-committed), the result is exactly the
// committed state at readTS.
func (t *Table) SnapshotScan(h *buffer.Handle, lo, hi, readTS uint64, fn func(key uint64, row []byte) bool) error {
	it := t.NewSnapshotIter(h, lo, hi, readTS)
	for {
		k, row, ok := it.Next()
		if !ok {
			return it.Err()
		}
		if !fn(k, row) {
			return nil
		}
	}
}

// SnapIndexIter streams rows visible at a snapshot timestamp via a
// secondary index. Postings are enumerated from a frozen snapshot of
// the secondary tree; each candidate primary key is resolved to its
// visible version, and the secondary key is re-derived from that
// version so a posting left by a newer (invisible) write never yields a
// false positive. A posting REMOVED by a write that committed after
// readTS but before the scan froze the secondary tree is missed — the
// documented (rare, bounded) staleness of snapshot index scans.
type SnapIndexIter struct {
	t        *Table
	h        *buffer.Handle
	ix       *secondaryIndex
	readTS   uint64
	it       btree.RangeIter[[]uint64]
	key      uint64
	postings []uint64
	pos      int
	buf      []byte
	err      error
}

// NewSnapshotIndexIter returns an iterator over rows whose visible
// version's secondary key (per index name) lies in [lo, hi].
func (t *Table) NewSnapshotIndexIter(h *buffer.Handle, name string, lo, hi, readTS uint64) (*SnapIndexIter, error) {
	ix, ok := t.indexByName(name)
	if !ok {
		return nil, fmt.Errorf("storage %s: no index %q", t.name, name)
	}
	return &SnapIndexIter{t: t, h: h, ix: ix, readTS: readTS, it: ix.tree.NewRangeIter(lo, hi)}, nil
}

// Next returns the next visible row in secondary-key order (ties in
// primary-key order). The row slice is reused across calls.
func (it *SnapIndexIter) Next() (pk uint64, row []byte, ok bool) {
	if it.err != nil {
		return 0, nil, false
	}
	for {
		for it.pos >= len(it.postings) {
			k, pks, more := it.it.Next()
			if !more {
				return 0, nil, false
			}
			it.key, it.postings, it.pos = k, pks, 0
		}
		pk = it.postings[it.pos]
		it.pos++
		out, found, err := it.t.resolveKey(it.h, pk, it.readTS, it.buf[:0])
		if err != nil {
			it.err = err
			return 0, nil, false
		}
		if !found {
			continue
		}
		if k2, ok2 := it.ix.keyOf(pk, out); !ok2 || k2 != it.key {
			continue // visible version no longer carries this index key
		}
		it.buf = out
		return pk, out, true
	}
}

// Err returns the first error the scan hit.
func (it *SnapIndexIter) Err() error { return it.err }

// SnapshotIndexScan is the callback form of SnapIndexIter.
func (t *Table) SnapshotIndexScan(h *buffer.Handle, name string, lo, hi, readTS uint64, fn func(pk uint64, row []byte) bool) error {
	it, err := t.NewSnapshotIndexIter(h, name, lo, hi, readTS)
	if err != nil {
		return err
	}
	for {
		pk, row, ok := it.Next()
		if !ok {
			return it.Err()
		}
		if !fn(pk, row) {
			return nil
		}
	}
}

// GC frees every version unreachable at low-water timestamp lw (from
// the clock's LowWater): per chain, everything strictly older than the
// first version at or below lw; committed tombstones at or below lw
// leave the index entirely (their slots are released for reuse); limbo
// versions no reader can still reach. Returns the number of versions
// freed. Runs under the table mutex (writers briefly excluded; readers
// unaffected).
func (t *Table) GC(lw uint64) (freed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gcRuns.Add(1)

	// Limbo: a parked version is dead once every reader that could hold
	// the pre-abort slot words (readTS <= safeAt) has unregistered.
	if len(t.limbo) > 0 {
		keep := t.limbo[:0]
		for _, le := range t.limbo {
			if le.safeAt < lw {
				t.arena.free(le.idx)
				freed++
			} else {
				keep = append(keep, le)
			}
		}
		t.limbo = keep
	}

	for key := range t.hist {
		id, meta, ok := t.slotOf(key)
		if !ok {
			delete(t.hist, key)
			continue
		}
		if tsCommitted(meta.ts) && meta.ts <= lw {
			// The inline version is the keep boundary: the whole chain is
			// unreachable.
			freed += t.freeChainLocked(meta.older)
			if meta.tomb {
				// No reader at or above lw can see anything for this key.
				t.dropKeyLocked(key, id)
			} else if meta.older != 0 {
				meta.older = 0
				t.slots.at(id).store(meta)
			}
			delete(t.hist, key)
			continue
		}
		// Walk to the keep boundary (first chain version at or below lw)
		// and truncate behind it.
		idx := meta.older
		for idx != 0 {
			v := t.arena.get(idx)
			if v.ts <= lw {
				if older := v.older.Load(); older != 0 {
					v.older.Store(0)
					freed += t.freeChainLocked(older)
				}
				break
			}
			idx = v.older.Load()
		}
	}
	t.gcFreed.Add(int64(freed))
	return freed
}

// freeChainLocked frees the whole chain starting at idx. Caller holds
// t.mu and has made the chain unreachable.
func (t *Table) freeChainLocked(idx uint32) int {
	n := 0
	for idx != 0 {
		v := t.arena.get(idx)
		next := v.older.Load()
		t.arena.free(idx)
		idx = next
		n++
	}
	return n
}
