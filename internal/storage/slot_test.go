package storage

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vats/internal/buffer"
)

// TestStampCommitZeroAlloc: resolving a write marker rewrites the key's
// slot words in place; it must not allocate (it used to path-copy the
// clustered index).
func TestStampCommitZeroAlloc(t *testing.T) {
	tab, h := newMVCCTable(t)
	const runs = 500
	for k := uint64(1); k <= runs+1; k++ {
		if err := tab.Insert(h, k, val(0)); err != nil {
			t.Fatal(err)
		}
		if err := tab.UpdateTxn(h, k, k, val(1)); err != nil {
			t.Fatal(err)
		}
	}
	clock := tab.Clock()
	next := uint64(0)
	allocs := testing.AllocsPerRun(runs, func() {
		next++
		cts := clock.Allocate()
		tab.StampCommit(next, next, cts)
		clock.Complete(cts)
	})
	if allocs != 0 {
		t.Errorf("%v allocs per StampCommit, want 0", allocs)
	}
	r := clock.BeginRead()
	defer clock.EndRead(r)
	for k := uint64(1); k <= runs+1; k++ {
		if got, err := tab.SnapshotGet(h, k, r); err != nil || string(got) != "v0001" {
			t.Fatalf("key %d after stamp: %q, %v; want v0001", k, got, err)
		}
	}
}

// TestInPlaceUpdateTxnAllocs: the first transactional write of a
// chain-less key that fits in place costs one allocation, the copy of
// the superseded image the chain keeps — also with a secondary index
// whose derived key the update leaves unchanged, which is not touched.
func TestInPlaceUpdateTxnAllocs(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		tab, h := newMVCCTable(t)
		if indexed {
			if err := tab.CreateIndex(h, "b0", func(pk uint64, row []byte) (uint64, bool) {
				return uint64(row[0]), true
			}); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 500
		for k := uint64(1); k <= runs+1; k++ {
			if err := tab.Insert(h, k, val(0)); err != nil {
				t.Fatal(err)
			}
		}
		next := uint64(0)
		row := val(1)
		allocs := testing.AllocsPerRun(runs, func() {
			next++
			if err := tab.UpdateTxn(h, 7, next, row); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("indexed=%v: %v allocs per in-place UpdateTxn, want <= 1", indexed, allocs)
		}
		if err := tab.CheckInvariants(h); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGCTruncationZeroAlloc: GC truncating a chain rewrites the slot's
// older word in place and frees arena versions without allocating. Run
// i passes a low-water mark that makes exactly key i's chain dead.
func TestGCTruncationZeroAlloc(t *testing.T) {
	tab, h := newMVCCTable(t)
	const runs = 300
	lws := make([]uint64, 0, runs+1)
	for k := uint64(1); k <= runs+1; k++ {
		if err := tab.Insert(h, k, val(0)); err != nil {
			t.Fatal(err)
		}
		if err := tab.UpdateTxn(h, 9, k, val(1)); err != nil {
			t.Fatal(err)
		}
		cts := tab.Clock().Allocate()
		tab.StampCommit(9, k, cts)
		tab.Clock().Complete(cts)
		lws = append(lws, cts)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if freed := tab.GC(lws[next]); freed != 1 {
			t.Fatalf("GC(%d) freed %d versions, want 1", lws[next], freed)
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("%v allocs per GC truncation, want 0", allocs)
	}
	if st := tab.MVCCStats(); st.Versions != 0 {
		t.Fatalf("arena holds %d versions after GC, want 0", st.Versions)
	}
	if err := tab.CheckInvariants(h); err != nil {
		t.Fatal(err)
	}
}

// TestSlotReusedAfterTombstoneGC: a key whose tombstone GC drops gives
// its slot back, and the next new key reuses it, so insert/delete churn
// (TPC-C's new-order queue) does not grow the slot store.
func TestSlotReusedAfterTombstoneGC(t *testing.T) {
	tab, h := newMVCCTable(t)
	for round := uint64(0); round < 20; round++ {
		for k := round * 10; k < round*10+10; k++ {
			if err := tab.Insert(h, k, val(int(k))); err != nil {
				t.Fatal(err)
			}
		}
		for k := round * 10; k < round*10+10; k++ {
			if err := tab.Delete(h, k); err != nil {
				t.Fatal(err)
			}
		}
		tab.GC(tab.Clock().LowWater())
	}
	if n := tab.slots.n; n != 10 {
		t.Fatalf("slot store handed out %d ids for 10 live keys at a time, want 10", n)
	}
	if err := tab.CheckInvariants(h); err != nil {
		t.Fatal(err)
	}
}

// slotRow builds a row image for key at version n: the key, the
// version, then padding derived from both, so a reader can tell a row
// of another key and a row torn between two versions apart.
func slotRow(key, n uint64, size int) []byte {
	row := make([]byte, size)
	binary.LittleEndian.PutUint64(row, key)
	binary.LittleEndian.PutUint64(row[8:], n)
	for i := 16; i < size; i++ {
		row[i] = byte(key*31 + n)
	}
	return row
}

// parseSlotRow returns the row's version after checking it is a whole
// image of key.
func parseSlotRow(key uint64, row []byte) (uint64, error) {
	if len(row) < 16 {
		return 0, errors.New("short row")
	}
	if got := binary.LittleEndian.Uint64(row); got != key {
		return 0, errors.New("row of another key")
	}
	n := binary.LittleEndian.Uint64(row[8:])
	for _, b := range row[16:] {
		if b != byte(key*31+n) {
			return 0, errors.New("torn row")
		}
	}
	return n, nil
}

// slotHistory is the committed history of every key the stress writer
// touches: per key, (cts, version) pairs in commit order, version 0
// meaning a tombstone. The writer records a commit before completing
// its timestamp, so a reader at readTS finds every commit at or below
// readTS recorded.
type slotHistory struct {
	mu   sync.RWMutex
	byTS map[uint64][]slotCommit
}

type slotCommit struct{ cts, n uint64 }

func (sh *slotHistory) record(key, cts, n uint64) {
	sh.mu.Lock()
	sh.byTS[key] = append(sh.byTS[key], slotCommit{cts, n})
	sh.mu.Unlock()
}

// visible returns the version of key visible at readTS (0: none).
func (sh *slotHistory) visible(key, readTS uint64) uint64 {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	n := uint64(0)
	for _, c := range sh.byTS[key] {
		if c.cts <= readTS {
			n = c.n
		}
	}
	return n
}

// visibleKeys returns the keys with a version visible at readTS.
func (sh *slotHistory) visibleKeys(readTS uint64) map[uint64]uint64 {
	sh.mu.RLock()
	keys := make([]uint64, 0, len(sh.byTS))
	for k := range sh.byTS {
		keys = append(keys, k)
	}
	sh.mu.RUnlock()
	out := make(map[uint64]uint64)
	for _, k := range keys {
		if n := sh.visible(k, readTS); n != 0 {
			out[k] = n
		}
	}
	return out
}

// TestSlotReuseRaceStress races lock-free readers — GetInto,
// SnapshotGetInto and SnapIter — against one writer that rewrites slot
// words every way the store allows: in-place and relocating updates,
// StampCommit and StampAbort (with the engine's undo writes), deletes
// whose tombstones GC drops, and re-inserts of the same keys and of
// fresh keys into the released slots. A reader must never return
// another key's row or a torn row, and a snapshot reader must return
// exactly the version the committed history makes visible at its
// timestamp — never an aborted or newer version's bytes under an older
// version's timestamp. Run with -race.
func TestSlotReuseRaceStress(t *testing.T) {
	p := buffer.NewPool(buffer.Config{Capacity: 512, PageSize: 512})
	tab := NewTable("slots", 1, p)
	clock := tab.Clock()
	wh := p.NewHandle()
	const (
		baseKeys  = 48
		freshBase = 1 << 20
		small     = 24
		large     = 120
	)
	hist := &slotHistory{byTS: make(map[uint64][]slotCommit)}
	live := make(map[uint64]bool) // writer-owned
	nextN := uint64(0)
	wid := uint64(0)
	write := func(key uint64, size int, op func(wid uint64, row []byte) error) (uint64, []byte) {
		wid++
		nextN++
		row := slotRow(key, nextN, size)
		if err := op(wid, row); err != nil {
			t.Fatalf("write key %d: %v", key, err)
		}
		return nextN, row
	}
	commit := func(key, n uint64) {
		cts := clock.Allocate()
		tab.StampCommit(wid, key, cts)
		hist.record(key, cts, n)
		clock.Complete(cts)
		live[key] = n != 0
	}
	insert := func(key uint64) {
		n, _ := write(key, small, func(w uint64, row []byte) error { return tab.InsertTxn(wh, w, key, row) })
		commit(key, n)
	}
	for k := uint64(1); k <= baseKeys; k++ {
		insert(k)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	var reads [3]atomic.Int64 // per reader kind
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		stop.Store(true)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := p.NewHandle()
			buf := make([]byte, 0, 256)
			x := uint64(g+1) * 2654435761
			for !stop.Load() {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				key := x%baseKeys + 1
				if x&4 != 0 {
					key = freshBase + x%8
				}
				switch g {
				case 0: // read-committed point reads
					out, err := tab.GetInto(h, key, buf[:0])
					if errors.Is(err, ErrKeyNotFound) {
						continue
					}
					if err != nil {
						fail("GetInto %d: %v", key, err)
						return
					}
					if _, err := parseSlotRow(key, out); err != nil {
						fail("GetInto %d: %v", key, err)
						return
					}
				case 1: // snapshot point reads
					r := clock.BeginRead()
					out, err := tab.SnapshotGetInto(h, key, r, buf[:0])
					want := hist.visible(key, r)
					clock.EndRead(r)
					got := uint64(0)
					if err == nil {
						if got, err = parseSlotRow(key, out); err != nil {
							fail("SnapshotGetInto %d: %v", key, err)
							return
						}
					} else if !errors.Is(err, ErrKeyNotFound) {
						fail("SnapshotGetInto %d: %v", key, err)
						return
					}
					if got != want {
						fail("SnapshotGetInto %d at %d: version %d, history says %d", key, r, got, want)
						return
					}
				case 2: // snapshot scans over the whole key space
					r := clock.BeginRead()
					it := tab.NewSnapshotIter(h, 0, ^uint64(0), r)
					seen := make(map[uint64]uint64)
					for {
						k, row, ok := it.Next()
						if !ok {
							break
						}
						n, err := parseSlotRow(k, row)
						if err != nil {
							fail("SnapIter key %d: %v", k, err)
							clock.EndRead(r)
							return
						}
						seen[k] = n
					}
					if err := it.Err(); err != nil {
						fail("SnapIter: %v", err)
						clock.EndRead(r)
						return
					}
					want := hist.visibleKeys(r)
					clock.EndRead(r)
					if len(seen) != len(want) {
						fail("SnapIter at %d saw %d keys, history says %d", r, len(seen), len(want))
						return
					}
					for k, n := range want {
						if seen[k] != n {
							fail("SnapIter at %d: key %d version %d, history says %d", r, k, seen[k], n)
							return
						}
					}
				}
				reads[g].Add(1)
			}
		}(g)
	}

	// The writer runs until every reader kind has overlapped a good
	// number of its writes, so a fast writer on a busy host cannot finish
	// before the readers start.
	minReads := func() int64 {
		m := reads[0].Load()
		for i := range reads {
			m = min(m, reads[i].Load())
		}
		return m
	}
	deadline := time.Now().Add(20 * time.Second)
	x := uint64(88172645463325252)
	for round := 0; (round < 3000 || minReads() < 300) && !stop.Load() && time.Now().Before(deadline); round++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		key := x%baseKeys + 1
		if x&4 != 0 {
			key = freshBase + x%8
		}
		size := small
		if x&8 != 0 {
			size = large // does not fit a small slot: relocates
		}
		switch {
		case !live[key] && x&16 != 0: // aborted insert
			write(key, size, func(w uint64, row []byte) error { return tab.InsertTxn(wh, w, key, row) })
			if err := tab.DeleteTxn(wh, wid, key); err != nil {
				t.Fatal(err)
			}
			tab.StampAbort(wid, key)
		case !live[key]:
			insert(key)
		case x&48 == 0:
			wid++
			if err := tab.DeleteTxn(wh, wid, key); err != nil {
				t.Fatal(err)
			}
			commit(key, 0)
		case x&64 != 0: // aborted update, undone in place by the old image
			old, err := tab.Get(wh, key)
			if err != nil {
				t.Fatal(err)
			}
			write(key, size, func(w uint64, row []byte) error { return tab.UpdateTxn(wh, w, key, row) })
			if err := tab.UpdateTxn(wh, wid, key, old); err != nil {
				t.Fatal(err)
			}
			tab.StampAbort(wid, key)
		default:
			n, _ := write(key, size, func(w uint64, row []byte) error { return tab.UpdateTxn(wh, w, key, row) })
			commit(key, n)
		}
		if round%16 == 0 {
			tab.GC(clock.LowWater())
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
	if m := minReads(); m < 300 {
		t.Fatalf("a reader kind made only %d reads", m)
	}
	tab.GC(clock.LowWater())
	if err := tab.CheckInvariants(wh); err != nil {
		t.Fatal(err)
	}
	// Released slots were reused: the store never grew much past the
	// number of keys the writer touches.
	if n := tab.slots.n; n > baseKeys+8 {
		t.Errorf("slot store handed out %d ids for %d keys", n, baseKeys+8)
	}
}
