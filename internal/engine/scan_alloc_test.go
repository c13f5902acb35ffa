package engine

import (
	"bytes"
	"testing"
)

// TestSnapshotScanAllocGuardrail caps the snapshot scan path's own
// allocations in the regime concurrent writers create: every row's
// newest version is above the scan's read timestamp, so every
// resolution leaves the inline fast path and walks the version chain
// (resolve -> walkChain). The iterator's chain-walk
// scratch buffer must absorb all of it — per-SCAN allocations stay a
// small constant, never O(rows).
//
// The chains are built before measuring (writers committed, not live),
// which is what makes the number deterministic: Go's allocation
// counters are process-wide, so a live writer's own churn (btree
// path-copying, WAL batches, lock state) would be charged to the scan.
// That concurrent-writer figure is tracked by
// BenchmarkSnapshotScanThroughput/writers_2 in BENCH_PR7.json instead.
func TestSnapshotScanAllocGuardrail(t *testing.T) {
	db := Open(fastCfg())
	defer db.Close()
	tab, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	const keys = 2048
	oldImg := bytes.Repeat([]byte{0xAA}, 64)
	newImg := bytes.Repeat([]byte{0xBB}, 64)
	load := s.Begin()
	for k := uint64(1); k <= keys; k++ {
		if err := load.Insert(tab, k, oldImg); err != nil {
			t.Fatal(err)
		}
	}
	if err := load.Commit(); err != nil {
		t.Fatal(err)
	}

	// Freeze the snapshot, THEN overwrite every row twice: the visible
	// version for this snapshot now lives on every key's chain, two
	// hops down, and the open registration keeps GC from reclaiming it.
	snap := s.BeginSnapshot()
	defer snap.Close()
	w := db.NewSession()
	for round := 0; round < 2; round++ {
		for lo := uint64(1); lo <= keys; lo += 256 {
			tx := w.Begin()
			for k := lo; k < lo+256 && k <= keys; k++ {
				if err := tx.Update(tab, k, newImg); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}

	scan := func() {
		rows, stale := 0, 0
		err := snap.Scan(tab, 0, ^uint64(0), func(_ uint64, row []byte) bool {
			rows++
			if len(row) > 0 && row[0] == 0xAA {
				stale++
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if rows != keys || stale != keys {
			t.Fatalf("scan saw %d rows, %d with the snapshot-visible image; want %d/%d",
				rows, stale, keys, keys)
		}
	}
	allocs := testing.AllocsPerRun(5, scan)
	// A scan costs a handful of fixed allocations (iterator, range
	// enumerator, one scratch-buffer growth); 64 is loose headroom for
	// all of that. Per-row churn would show up as >= 2048.
	if allocs > 64 {
		t.Errorf("snapshot scan over %d chained rows: %.0f allocs/scan, want <= 64 (chain-walk scratch buffer not reused?)", keys, allocs)
	}
}
