package engine

import (
	"testing"

	"vats/internal/storage"
	"vats/internal/wal"
)

// TestEagerCommitAllocs caps the allocations of one EagerSingle-style
// transaction (three updates of committed keys, then an eager-flush
// commit): redo encoding, WAL hand-off, lock state and the MVCC writes.
// Writes and commit stamps rewrite per-row version words in place, so
// the clustered index is never path-copied on this path; the cap is the
// commit path's budget at ~10 allocations per transaction plus slack
// for background flusher churn, which Go's process-wide counters charge
// to the measured function.
func TestEagerCommitAllocs(t *testing.T) {
	db := Open(benchCfg(wal.EagerFlush, false))
	defer db.Close()
	tab, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	var rb storage.RowBuilder
	img := rb.Uint64(1).Bytes()
	load := s.Begin()
	for k := uint64(1); k <= 128; k++ {
		if err := load.Insert(tab, k, img); err != nil {
			t.Fatal(err)
		}
	}
	if err := load.Commit(); err != nil {
		t.Fatal(err)
	}
	i := uint64(0)
	txn := func() {
		i++
		err := s.RunTxn(3, func(tx *Txn) error {
			for k := uint64(0); k < 3; k++ {
				if err := tx.Update(tab, (i+k)%128+1, img); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 500; w++ { // settle pools, chains and the GC worklist
		txn()
	}
	allocs := testing.AllocsPerRun(500, txn)
	t.Logf("%v allocs per transaction", allocs)
	if allocs > 15 {
		t.Errorf("%v allocs per EagerSingle transaction, want <= 15", allocs)
	}
}
