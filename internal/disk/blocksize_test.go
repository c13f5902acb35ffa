package disk

import (
	"testing"
	"time"
)

// TestBlockSizeUShape verifies the trade-off behind the paper's fig. 4
// (right): for a fixed payload, growing the block size first reduces
// service time (fewer per-block operations) and then increases it
// (whole blocks are transferred even when mostly empty). The fsync each
// Sync adds costs the same at every block size.
func TestBlockSizeUShape(t *testing.T) {
	const payload = 6 * 1024 // a mid-size group-commit batch
	busyFor := func(block int) time.Duration {
		d := New(Config{
			MedianLatency: 200 * time.Microsecond, // per-op overhead
			Sigma:         0,
			BlockSize:     block,
			PerByte:       30 * time.Nanosecond, // transfer cost
			Seed:          1,
		})
		writeSync(t, d, payload)
		return d.Stats().BusyTime
	}
	small := busyFor(1 * 1024)  // 6 ops, no padding
	mid := busyFor(8 * 1024)    // 1 op, 2KiB padding
	large := busyFor(64 * 1024) // 1 op, 58KiB padding
	if mid >= small {
		t.Errorf("mid block (%v) not cheaper than small (%v): op overhead not amortized", mid, small)
	}
	if large <= mid {
		t.Errorf("large block (%v) not costlier than mid (%v): padding not charged", large, mid)
	}
}

// TestWaitersGauge verifies the queue-length signal parallel logging
// uses to pick a stream.
func TestWaitersGauge(t *testing.T) {
	d := New(Config{MedianLatency: 5 * time.Millisecond, Sigma: 0, BlockSize: 4096, Seed: 1})
	done := make(chan struct{})
	go func() {
		d.Sync()
		close(done)
	}()
	// While the op is in service, Waiters includes it.
	deadline := time.Now().Add(time.Second)
	for d.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiters never went positive")
		}
	}
	<-done
	if d.Waiters() != 0 {
		t.Fatalf("waiters = %d after quiesce", d.Waiters())
	}
}
