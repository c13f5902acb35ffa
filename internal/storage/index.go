package storage

import (
	"fmt"

	"vats/internal/btree"
	"vats/internal/buffer"
)

// IndexKeyFunc derives a (non-unique) secondary key from a row. Return
// ok=false to leave the row out of the index (partial index).
type IndexKeyFunc func(pk uint64, row []byte) (key uint64, ok bool)

// secondaryIndex maps a derived key to the primary keys of the rows
// carrying it. Mutations are serialized by the table's mutex; the tree
// is copy-on-write, so scans read it lock-free.
type secondaryIndex struct {
	name  string
	keyOf IndexKeyFunc
	tree  *btree.Tree[[]uint64]
}

// add and remove never mutate a stored pk slice in place: the tree's
// published snapshots share values with readers, so each change installs
// a fresh slice.
func (ix *secondaryIndex) add(key, pk uint64) {
	pks, _ := ix.tree.Get(key)
	out := make([]uint64, len(pks)+1)
	copy(out, pks)
	out[len(pks)] = pk
	ix.tree.Insert(key, out)
}

func (ix *secondaryIndex) remove(key, pk uint64) {
	pks, ok := ix.tree.Get(key)
	if !ok {
		return
	}
	out := make([]uint64, 0, len(pks))
	for _, p := range pks {
		if p != pk {
			out = append(out, p)
		}
	}
	switch {
	case len(out) == len(pks):
		// pk was not in the posting list; nothing to do.
	case len(out) == 0:
		ix.tree.Delete(key)
	default:
		ix.tree.Insert(key, out)
	}
}

// CreateIndex adds a secondary index and backfills it from the existing
// rows. h is the caller's buffer handle (backfill reads pages).
func (t *Table) CreateIndex(h *buffer.Handle, name string, keyOf IndexKeyFunc) error {
	if keyOf == nil {
		return fmt.Errorf("storage %s: nil index key func", t.name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.loadIndexes()
	for _, ix := range old {
		if ix.name == name {
			return fmt.Errorf("storage %s: index %q exists", t.name, name)
		}
	}
	ix := &secondaryIndex{name: name, keyOf: keyOf, tree: btree.New[[]uint64](0)}
	// Backfill. Reading pages under t.mu is deadlock-free (readRID takes
	// no table lock) and keeps the backfill atomic with respect to
	// writers.
	var err error
	t.index.Ascend(func(pk uint64, id uint32) bool {
		meta := t.slots.at(id).meta(t.space)
		if meta.tomb {
			return true
		}
		var row []byte
		row, err = t.readRID(h, meta.rid)
		if err != nil {
			return false
		}
		if key, ok := keyOf(pk, row); ok {
			ix.add(key, pk)
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("storage %s: backfill %q: %w", t.name, name, err)
	}
	// Publish a fresh list (copy-on-write) so concurrent readers never
	// see a partially-built slice.
	next := make([]*secondaryIndex, len(old)+1)
	copy(next, old)
	next[len(old)] = ix
	t.idxs.Store(&next)
	return nil
}

func (t *Table) indexByName(name string) (*secondaryIndex, bool) {
	for _, ix := range t.loadIndexes() {
		if ix.name == name {
			return ix, true
		}
	}
	return nil, false
}

// indexInsertLocked, indexDeleteLocked and indexUpdateLocked maintain
// all indexes; caller holds t.mu.
func (t *Table) indexInsertLocked(pk uint64, row []byte) {
	for _, ix := range t.loadIndexes() {
		if key, ok := ix.keyOf(pk, row); ok {
			ix.add(key, pk)
		}
	}
}

func (t *Table) indexDeleteLocked(pk uint64, row []byte) {
	for _, ix := range t.loadIndexes() {
		if key, ok := ix.keyOf(pk, row); ok {
			ix.remove(key, pk)
		}
	}
}

// indexUpdateLocked moves pk's postings from old's derived keys to
// row's, touching only the indexes whose key changed: each add or
// remove path-copies the posting tree and allocates a posting slice.
func (t *Table) indexUpdateLocked(pk uint64, old, row []byte) {
	for _, ix := range t.loadIndexes() {
		k0, ok0 := ix.keyOf(pk, old)
		k1, ok1 := ix.keyOf(pk, row)
		if ok0 == ok1 && k0 == k1 {
			continue
		}
		if ok0 {
			ix.remove(k0, pk)
		}
		if ok1 {
			ix.add(k1, pk)
		}
	}
}

// IndexScan calls fn for every row whose secondary key falls in
// [lo, hi], ascending by secondary key (rows sharing a key come in
// primary-key order). Row images are copies. The scan streams over
// copy-on-write snapshots of the secondary and clustered trees without
// taking the table lock; rows deleted or relocated mid-scan are skipped
// (read-committed, as before).
func (t *Table) IndexScan(h *buffer.Handle, name string, lo, hi uint64, fn func(pk uint64, row []byte) bool) error {
	ix, ok := t.indexByName(name)
	if !ok {
		return fmt.Errorf("storage %s: no index %q", t.name, name)
	}
	ix.tree.AscendRange(lo, hi, func(_ uint64, pks []uint64) bool {
		for _, pk := range pks {
			row, found, err := t.resolveKey(h, pk, newestTS, nil)
			if err != nil || !found {
				continue // deleted or relocated since the snapshot
			}
			if !fn(pk, row) {
				return false
			}
		}
		return true
	})
	return nil
}
