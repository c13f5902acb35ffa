package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"vats/internal/btree"
	"vats/internal/buffer"
	"vats/internal/mvcc"
	"vats/internal/obs"
)

// Errors returned by Table operations.
var (
	// ErrDuplicateKey means an Insert hit an existing primary key.
	ErrDuplicateKey = errors.New("storage: duplicate key")
	// ErrKeyNotFound means the primary key does not exist.
	ErrKeyNotFound = errors.New("storage: key not found")
	// ErrRowTooLarge means the row cannot fit in a page.
	ErrRowTooLarge = errors.New("storage: row too large for page")
	// ErrEmptyRow means a zero-length row image was supplied; the
	// slotted page cannot represent an empty live extent.
	ErrEmptyRow = errors.New("storage: empty row")
)

// RID locates a row: the page and its slot.
type RID struct {
	Page buffer.PageID
	Slot int
}

// Table is a multi-versioned heap table with a clustered B+-tree index
// on a uint64 primary key. Row images are opaque byte slices (see
// RowBuilder). The index maps each key to a stable slot id; the slot
// (see rowSlot in mvcc.go) holds the key's version words: the newest
// version's location and timestamp, its tombstone flag, and the head of
// its chain of older versions in the version arena.
//
// Reads are optimistic. The clustered index is a copy-on-write tree
// whose snapshots readers traverse lock-free, and only inserting or
// removing a key changes it. Every other write — update, delete,
// stamp, GC truncation — rewrites the key's slot words in place under
// the slot's seqlock, together with any page change that must agree
// with them (an in-place overwrite, a tombstoned page slot). A reader
// copies the words under the seqlock, reads the page, and accepts the
// bytes only if the slot's sequence did not move, so it never pairs one
// version's bytes with another version's words. Insert needs no
// seqlock window for the page: a row's image is in place before its
// words point at it. A reader that keeps losing the race falls back to
// the shared lock, which fully excludes writers.
//
// Physical consistency is internal (seqlocks + page latches); isolation
// between transactions touching the same key is the caller's
// responsibility via the lock manager — except snapshot reads
// (SnapshotGetInto / SnapshotScan), whose visibility is a pure
// timestamp comparison and which take no locks at all.
type Table struct {
	name  string
	space uint32
	pool  *buffer.Pool
	clock *mvcc.Clock
	mv    *obs.MVCCMetrics

	// index maps primary key to slot id. The tree is internally
	// copy-on-write: lock-free readers always see a consistent
	// snapshot; writers are serialized by mu.
	index *btree.Tree[uint32]

	// slots holds each indexed key's version words (mvcc.go).
	slots slotStore

	// idxs is the immutable secondary-index list, replaced wholesale by
	// CreateIndex (copy-on-write under mu).
	idxs atomic.Pointer[[]*secondaryIndex]

	// nextPage is the page allocation high-water mark; atomic so Pages
	// never has to queue behind a bulk load.
	nextPage atomic.Uint64

	// live counts non-tombstone keys (Len), maintained under mu but
	// readable lock-free.
	live atomic.Int64

	// lastCommit is the highest commit timestamp ever stamped into one
	// of this table's versions (monotone max; bumped before the clock
	// completes the timestamp). Because stamping happens-before the
	// commit clock's contiguous watermark reaches the timestamp, a
	// reader holding a snapshot at watermark ts observes the bump of
	// every commit with cts ≤ ts — so LastCommitTS() ≤ some older ts0
	// certifies no commit in (ts0, ts] touched the table.
	lastCommit atomic.Uint64

	// Chain-walk counters for MVCCStats.
	walks     atomic.Int64
	walkSteps atomic.Int64
	gcRuns    atomic.Int64
	gcFreed   atomic.Int64

	mu       sync.RWMutex // serializes writers; fallback readers share it
	fillPage buffer.PageID
	hasFill  bool

	arena versionArena
	hist  map[uint64]struct{} // keys with a chain or tombstone (GC worklist)
	limbo []limboRef
}

// NewTable creates an empty table in the given buffer pool with a
// private commit clock. space must be unique per pool. The engine uses
// NewTableWithClock so every table shares the database clock.
func NewTable(name string, space uint32, pool *buffer.Pool) *Table {
	return NewTableWithClock(name, space, pool, mvcc.NewClock(), nil)
}

// NewTableWithClock creates an empty table stamping versions from the
// given shared clock; mv (may be nil) receives MVCC metrics.
func NewTableWithClock(name string, space uint32, pool *buffer.Pool, clock *mvcc.Clock, mv *obs.MVCCMetrics) *Table {
	return &Table{
		name:  name,
		space: space,
		pool:  pool,
		clock: clock,
		mv:    mv,
		index: btree.New[uint32](0),
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Space returns the table's page-space id.
func (t *Table) Space() uint32 { return t.space }

// Clock returns the commit clock stamping this table's versions.
func (t *Table) Clock() *mvcc.Clock { return t.clock }

// LastCommitTS returns the highest commit timestamp stamped into this
// table so far. Read under a snapshot at watermark ts, a return value
// ≤ ts0 (for ts0 ≤ ts) proves no commit with cts in (ts0, ts] wrote
// this table — the incremental checkpointer's re-emission gate.
func (t *Table) LastCommitTS() uint64 { return t.lastCommit.Load() }

// noteCommit raises lastCommit to cts (monotone max). Called before
// t.clock.Complete(cts) on every path that stamps cts into a version.
func (t *Table) noteCommit(cts uint64) {
	for {
		cur := t.lastCommit.Load()
		if cts <= cur || t.lastCommit.CompareAndSwap(cur, cts) {
			return
		}
	}
}

// Len returns the number of live (non-tombstone) rows. It never blocks
// behind writers, so stats endpoints cannot stall behind a bulk load.
func (t *Table) Len() int { return int(t.live.Load()) }

// Pages returns the number of pages allocated so far (lock-free).
func (t *Table) Pages() uint64 { return t.nextPage.Load() }

func (t *Table) loadIndexes() []*secondaryIndex {
	if p := t.idxs.Load(); p != nil {
		return *p
	}
	return nil
}

// Insert adds a row under key as an immediately-committed write (its
// version is stamped from the table clock). h is the caller's
// worker-local buffer handle. Transactional writers use InsertTxn.
func (t *Table) Insert(h *buffer.Handle, key uint64, row []byte) error {
	if len(row) == 0 {
		return ErrEmptyRow
	}
	if len(row) > maxRowSize(t.pool.PageSize()) {
		return ErrRowTooLarge
	}
	cts := t.clock.Allocate()
	t.mu.Lock()
	err := t.insertLocked(h, cts, key, row)
	t.mu.Unlock()
	if err == nil {
		t.noteCommit(cts)
	}
	t.clock.Complete(cts)
	return err
}

// InsertTxn adds a row under key on behalf of in-flight transaction
// wid. The version stays marked uncommitted until StampCommit or
// StampAbort; the caller must hold the key's exclusive record lock.
func (t *Table) InsertTxn(h *buffer.Handle, wid, key uint64, row []byte) error {
	if len(row) == 0 {
		return ErrEmptyRow
	}
	if len(row) > maxRowSize(t.pool.PageSize()) {
		return ErrRowTooLarge
	}
	t.mu.Lock()
	err := t.insertLocked(h, writeMarker(wid), key, row)
	t.mu.Unlock()
	return err
}

// insertLocked installs a new version under key with timestamp ts
// (commit ts or write marker). Caller holds t.mu.
func (t *Table) insertLocked(h *buffer.Handle, ts, key uint64, row []byte) error {
	id, meta, ok := t.slotOf(key)
	if ok {
		if !meta.tomb {
			return ErrDuplicateKey
		}
		pushed := uint32(0)
		if meta.ts != ts {
			// Insert over a committed tombstone: the tombstone becomes a
			// chain version so older snapshots keep seeing the deletion.
			meta.older = t.arena.push(meta.ts, nil, true, meta.older)
			pushed = meta.older
		}
		// Same-transaction re-insert after its own delete reuses the
		// marker; the chain already holds the pre-transaction version.
		rid, err := t.placeRowLocked(h, row)
		if err != nil {
			if pushed != 0 {
				// Unpublished (the slot still holds the tombstone words):
				// free it so arena gauges stay equal to what is reachable.
				t.arena.free(pushed)
			}
			return err
		}
		meta.rid, meta.ts, meta.tomb = rid, ts, false
		t.slots.at(id).store(meta)
		t.noteHistoryLocked(key)
		t.live.Add(1)
		t.indexInsertLocked(key, row)
		return nil
	}
	rid, err := t.placeRowLocked(h, row)
	if err != nil {
		return err
	}
	// The page image is written before the index publishes the slot, so
	// optimistic readers either miss the key or see a complete row.
	t.index.Insert(key, t.slots.alloc(key, rowMeta{rid: rid, ts: ts}))
	t.live.Add(1)
	t.indexInsertLocked(key, row)
	return nil
}

// slotOf returns key's slot id and version words. Caller holds t.mu.
func (t *Table) slotOf(key uint64) (uint32, rowMeta, bool) {
	id, ok := t.index.Get(key)
	if !ok {
		return 0, rowMeta{}, false
	}
	return id, t.slots.at(id).meta(t.space), true
}

// dropKeyLocked removes key from the index and releases its slot for
// reuse. Caller holds t.mu.
func (t *Table) dropKeyLocked(key uint64, id uint32) {
	t.index.Delete(key)
	t.slots.release(id)
}

// placeRowLocked finds space for a row, allocating pages as needed.
// Caller holds t.mu.
func (t *Table) placeRowLocked(h *buffer.Handle, row []byte) (RID, error) {
	for attempt := 0; attempt < 2; attempt++ {
		if t.hasFill {
			fr, err := h.Fetch(t.fillPage)
			if err != nil {
				return RID{}, fmt.Errorf("storage %s: fill page: %w", t.name, err)
			}
			var slot int
			var ok bool
			fr.WithPageLock(func() {
				slot, ok = pageInsertRow(fr.Data(), row)
			})
			if ok {
				fr.MarkDirty()
				rid := RID{Page: fr.ID(), Slot: slot}
				fr.Release()
				return rid, nil
			}
			fr.Release()
			t.hasFill = false
		}
		// Allocate a fresh page.
		id := buffer.PageID{Space: t.space, No: t.nextPage.Add(1)}
		fr, err := t.pool.Create(id)
		if err != nil {
			return RID{}, fmt.Errorf("storage %s: create page: %w", t.name, err)
		}
		fr.WithPageLock(func() {
			pageInit(fr.Data())
		})
		fr.MarkDirty()
		fr.Release()
		t.fillPage = id
		t.hasFill = true
	}
	return RID{}, ErrRowTooLarge
}

// optimisticRetries is how many times a reader replays the lock-free
// lookup+read before taking the shared lock.
const optimisticRetries = 3

// Get copies the newest row image stored under key (read-committed:
// whatever the inline version holds — callers wanting transactional
// isolation hold record locks, callers wanting a frozen timestamp use
// SnapshotGet).
func (t *Table) Get(h *buffer.Handle, key uint64) ([]byte, error) {
	row, err := t.GetInto(h, key, nil)
	if err != nil {
		return nil, err
	}
	return row, nil
}

// GetInto appends the newest row image stored under key to buf and
// returns the extended slice. With a buf of sufficient capacity the
// read path does not allocate. On error buf is returned unchanged.
func (t *Table) GetInto(h *buffer.Handle, key uint64, buf []byte) ([]byte, error) {
	// At newestTS the snapshot read returns the inline version, whatever
	// its timestamp.
	return t.SnapshotGetInto(h, key, newestTS, buf)
}

// readInto appends the row image at rid to buf; ok is false when the
// page slot is dead.
func (t *Table) readInto(h *buffer.Handle, rid RID, buf []byte) ([]byte, bool, error) {
	fr, err := h.Fetch(rid.Page)
	if err != nil {
		return buf, false, fmt.Errorf("storage %s: %w", t.name, err)
	}
	fr.Latch()
	out, ok := pageReadRowAppend(fr.Data(), rid.Slot, buf)
	fr.Unlatch()
	fr.Release()
	return out, ok, nil
}

// readRID copies the row image at rid.
func (t *Table) readRID(h *buffer.Handle, rid RID) ([]byte, error) {
	row, ok, err := t.readInto(h, rid, nil)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrKeyNotFound
	}
	return row, nil
}

// Update replaces the row under key as an immediately-committed write,
// pushing the superseded version onto the key's chain. Transactional
// writers use UpdateTxn.
func (t *Table) Update(h *buffer.Handle, key uint64, row []byte) error {
	if len(row) == 0 {
		return ErrEmptyRow
	}
	if len(row) > maxRowSize(t.pool.PageSize()) {
		return ErrRowTooLarge
	}
	cts := t.clock.Allocate()
	t.mu.Lock()
	err := t.updateLocked(h, cts, key, row)
	t.mu.Unlock()
	if err == nil {
		t.noteCommit(cts)
	}
	t.clock.Complete(cts)
	return err
}

// UpdateTxn replaces the row under key on behalf of in-flight
// transaction wid (see InsertTxn for the marker protocol).
func (t *Table) UpdateTxn(h *buffer.Handle, wid, key uint64, row []byte) error {
	if len(row) == 0 {
		return ErrEmptyRow
	}
	if len(row) > maxRowSize(t.pool.PageSize()) {
		return ErrRowTooLarge
	}
	t.mu.Lock()
	err := t.updateLocked(h, writeMarker(wid), key, row)
	t.mu.Unlock()
	return err
}

// updateLocked installs a new version of key with timestamp ts,
// relocating the row if the new image no longer fits in place. Caller
// holds t.mu.
func (t *Table) updateLocked(h *buffer.Handle, ts, key uint64, row []byte) error {
	id, meta, ok := t.slotOf(key)
	if !ok || meta.tomb {
		return ErrKeyNotFound
	}
	old, err := t.readRID(h, meta.rid)
	if err != nil {
		return err
	}
	prevOlder := meta.older
	pushed := uint32(0)
	if meta.ts != ts {
		// First write of this version: the superseded image (old is this
		// call's own copy) moves to the chain. A transaction overwriting
		// its own uncommitted write replaces the bytes without growing
		// the chain.
		meta.older = t.arena.push(meta.ts, old, false, meta.older)
		pushed = meta.older
		t.noteHistoryLocked(key)
	}
	meta.ts = ts
	// undoPush reverses this call's arena push when a later step fails:
	// the new words were never stored, so the pushed version is
	// unreachable by every reader and freeing it keeps the arena gauges
	// equal to what chains and limbo can reach.
	undoPush := func() {
		if pushed == 0 {
			return
		}
		t.arena.free(pushed)
		if prevOlder == 0 {
			delete(t.hist, key)
		}
	}

	s := t.slots.at(id)
	fr, err := h.Fetch(meta.rid.Page)
	if err != nil {
		undoPush()
		return fmt.Errorf("storage %s: %w", t.name, err)
	}
	// In-place path: rewrite the words and overwrite the bytes inside
	// one seqlock window, so a reader can never pair the new bytes with
	// the old timestamp (its sequence re-check sees the rewrite).
	fr.Latch()
	_, length, inPlace := slotBounds(fr.Data(), meta.rid.Slot)
	inPlace = inPlace && len(row) <= length
	if inPlace {
		s.begin()
		s.set(meta)
		pageUpdateRowInPlace(fr.Data(), meta.rid.Slot, row)
		s.end()
	}
	fr.Unlatch()
	if inPlace {
		fr.MarkDirty()
		fr.Release()
		t.indexUpdateLocked(key, old, row)
		return nil
	}
	fr.Release()

	// Relocate: place the new image, then point the words at it and
	// tombstone the old page slot inside one seqlock window.
	oldRID := meta.rid
	newRID, err := t.placeRowLocked(h, row)
	if err != nil {
		undoPush()
		return err
	}
	fr2, err := h.Fetch(oldRID.Page)
	if err != nil {
		undoPush()
		// Drop the just-placed copy too: the words never pointed at it,
		// so no reader can hold it.
		if nf, nerr := h.Fetch(newRID.Page); nerr == nil {
			nf.Latch()
			pageDeleteRow(nf.Data(), newRID.Slot)
			nf.Unlatch()
			nf.MarkDirty()
			nf.Release()
		}
		return fmt.Errorf("storage %s: %w", t.name, err)
	}
	meta.rid = newRID
	s.begin()
	s.set(meta)
	fr2.Latch()
	pageDeleteRow(fr2.Data(), oldRID.Slot)
	fr2.Unlatch()
	s.end()
	fr2.MarkDirty()
	fr2.Release()
	t.indexUpdateLocked(key, old, row)
	return nil
}

// Delete removes the row under key as an immediately-committed write;
// the key stays in the index as a tombstone version until GC reclaims
// it. Transactional writers use DeleteTxn.
func (t *Table) Delete(h *buffer.Handle, key uint64) error {
	cts := t.clock.Allocate()
	t.mu.Lock()
	err := t.deleteLocked(h, cts, key)
	t.mu.Unlock()
	if err == nil {
		t.noteCommit(cts)
	}
	t.clock.Complete(cts)
	return err
}

// DeleteTxn removes the row under key on behalf of in-flight
// transaction wid (see InsertTxn for the marker protocol).
func (t *Table) DeleteTxn(h *buffer.Handle, wid, key uint64) error {
	t.mu.Lock()
	err := t.deleteLocked(h, writeMarker(wid), key)
	t.mu.Unlock()
	return err
}

// deleteLocked tombstones key at timestamp ts. The new words and the
// page tombstone are written inside one seqlock window so an optimistic
// reader can never see the dead page slot with a stable sequence.
// Caller holds t.mu.
func (t *Table) deleteLocked(h *buffer.Handle, ts, key uint64) error {
	id, meta, ok := t.slotOf(key)
	if !ok || meta.tomb {
		return ErrKeyNotFound
	}
	old, err := t.readRID(h, meta.rid)
	if err != nil {
		return err
	}
	t.indexDeleteLocked(key, old)
	fr, err := h.Fetch(meta.rid.Page)
	if err != nil {
		return fmt.Errorf("storage %s: %w", t.name, err)
	}
	// A key created by this same uncommitted transaction with no prior
	// version is visible to no reader at any timestamp, so it leaves the
	// index outright (this is also the undo path for an aborted insert).
	fresh := meta.ts == ts && meta.older == 0
	if !fresh && meta.ts != ts {
		meta.older = t.arena.push(meta.ts, old, false, meta.older)
	}
	meta.ts, meta.tomb = ts, true
	s := t.slots.at(id)
	s.begin()
	s.set(meta)
	fr.Latch()
	pageDeleteRow(fr.Data(), meta.rid.Slot)
	fr.Unlatch()
	s.end()
	fr.MarkDirty()
	fr.Release()
	t.live.Add(-1)
	if fresh {
		t.dropKeyLocked(key, id)
		delete(t.hist, key)
		return nil
	}
	t.noteHistoryLocked(key)
	return nil
}

// Scan calls fn for every key in [lo, hi] ascending until fn returns
// false, at READ-COMMITTED isolation: it streams over a copy-on-write
// index snapshot without taking the table lock and reads each key's
// newest inline version, so rows committed, deleted, or relocated
// mid-scan may or may not appear — each row image is individually
// consistent, but the scan as a whole is no single point in time. Use
// SnapshotScan for a frozen-timestamp view. The row images passed to fn
// are copies.
func (t *Table) Scan(h *buffer.Handle, lo, hi uint64, fn func(key uint64, row []byte) bool) error {
	var err error
	t.index.AscendRange(lo, hi, func(k uint64, id uint32) bool {
		var row []byte
		var found bool
		row, found, err = t.resolve(h, k, id, newestTS, nil)
		if err != nil {
			return false
		}
		return !found || fn(k, row)
	})
	return err
}
