package wal

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"vats/internal/disk"
	"vats/internal/faultfs"
)

// flakyDev wraps a fault-capable device with injectable
// transient errors.
type flakyDev struct {
	disk.Device
	failWrites atomic.Int32 // fail this many WriteData calls
	failSyncs  atomic.Int32 // fail this many Sync calls
}

var errInjected = errors.New("injected transient I/O error")

func (d *flakyDev) WriteData(p []byte) error {
	if d.failWrites.Add(-1) >= 0 {
		return errInjected
	}
	return d.Device.WriteData(p)
}

func (d *flakyDev) Sync() error {
	if d.failSyncs.Add(-1) >= 0 {
		return errInjected
	}
	return d.Device.Sync()
}

// TestCommitterNotStrandedByFlushWriteError reproduces the torture
// campaign hang: an EagerFlush committer's batch is claimed by a
// concurrent Flush (a checkpoint's durability barrier), the committer
// parks in the waiter branch, and the flush pass then hits a transient
// WriteData error and resurrects the batch into the buffer. Under
// EagerFlush no background flusher exists, so before the resurrection
// kick was added the committer slept forever — nothing was ever going
// to re-claim its batch or broadcast.
//
// The claim and the resurrection are performed by hand (exactly the
// moves flushClaims makes around a failed WriteData) because the
// real interleaving needs the committer to slip between the flusher's
// stream-lock windows — a timing window a deterministic test can't hit
// reliably. The contract under test is the manager's, not the
// flusher's: a batch moved back into buffered while its committer is
// parked must wake that committer.
func TestCommitterNotStrandedByFlushWriteError(t *testing.T) {
	fd := &flakyDev{Device: planDev(1, faultfs.Config{})}
	m := New(Config{Devices: []disk.Device{fd}, Policy: EagerFlush})
	defer m.Close()

	if _, err := m.Append(1, []byte("payload")); err != nil {
		t.Fatal(err)
	}

	// "Flush claims the batch": buffered empties while txn 1 stays
	// pending — the state the committer observes when a real flush pass
	// is mid-I/O with its claim.
	m.mu.Lock()
	claim := m.buffered
	claimBytes := m.bufferedBytes
	m.buffered = nil
	m.bufferedBytes = 0
	m.mu.Unlock()

	// The committer finds nothing to claim and parks in the waiter
	// branch.
	commitErr := make(chan error, 1)
	go func() { commitErr <- m.Commit(1) }()
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-commitErr:
		t.Fatalf("Commit returned %v before its batch was durable", err)
	default:
	}

	// "WriteData failed": the flush pass resurrects its claim, as
	// flushClaims does on a transient write error. The parked
	// committer must be kicked awake to flush the batch itself.
	m.mu.Lock()
	m.buffered = append(claim, m.buffered...)
	m.bufferedBytes += claimBytes
	m.kicked++
	m.cond.Broadcast()
	m.mu.Unlock()

	select {
	case err := <-commitErr:
		if err != nil {
			t.Fatalf("Commit = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("committer stranded: lost wakeup after flush resurrected its batch")
	}
	m.mu.Lock()
	got := m.pending[1]
	m.mu.Unlock()
	if got != 0 {
		t.Fatalf("pending(1) = %d after successful Commit", got)
	}
}

// TestCommitterDrivesSyncOfWrittenBatches covers the second stranding
// shape: a flush pass writes the batch but the fsync fails, leaving it
// written-but-unsynced. Under EagerFlush nobody is obligated to sync
// m.written, so a committer that arrives afterwards (no kick coming)
// must notice the unsynced batches and drive the flush itself instead
// of parking.
func TestCommitterDrivesSyncOfWrittenBatches(t *testing.T) {
	fd := &flakyDev{Device: planDev(2, faultfs.Config{})}
	m := New(Config{Devices: []disk.Device{fd}, Policy: EagerFlush})
	defer m.Close()

	if _, err := m.Append(1, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	fd.failSyncs.Store(1)
	if err := m.Flush(); !errors.Is(err, errInjected) {
		t.Fatalf("Flush error = %v, want injected transient error", err)
	}

	commitErr := make(chan error, 1)
	go func() { commitErr <- m.Commit(1) }()
	select {
	case err := <-commitErr:
		if err != nil {
			t.Fatalf("Commit = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("committer stranded on a written-but-unsynced batch")
	}
	m.mu.Lock()
	got := m.pending[1]
	m.mu.Unlock()
	if got != 0 {
		t.Fatalf("pending(1) = %d after successful Commit", got)
	}
}
