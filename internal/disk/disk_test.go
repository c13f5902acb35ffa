package disk

import (
	"sync"
	"testing"
	"time"

	"vats/internal/faultfs"
	"vats/internal/xrand"
)

func fastConfig() Config {
	return Config{
		Name:          "test",
		MedianLatency: 50 * time.Microsecond,
		Sigma:         0.2,
		BlockSize:     4096,
		PerByte:       time.Nanosecond,
		Seed:          1,
	}
}

func TestDefaultsApplied(t *testing.T) {
	d := New(Config{})
	if d.Config().MedianLatency <= 0 || d.Config().BlockSize <= 0 {
		t.Fatal("defaults not applied")
	}
}

// writeSync writes n bytes and syncs them: the WAL's commit-path pair.
func writeSync(t *testing.T, d *Sim, n int) {
	t.Helper()
	if err := d.WriteData(make([]byte, n)); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncChargesWrittenBlocks(t *testing.T) {
	d := New(fastConfig())
	writeSync(t, d, 1) // 1 byte -> 1 block
	writeSync(t, d, 4097)
	// Two writes cached before one Sync are charged as one request.
	d.WriteData(make([]byte, 4000))
	d.WriteData(make([]byte, 4000))
	d.Sync()
	st := d.Stats()
	if st.BlocksDone != 5 {
		t.Fatalf("blocks = %d, want 5 (1 + 2 + 2)", st.BlocksDone)
	}
	if st.BytesDone != 5*4096 {
		t.Fatalf("bytes = %d, want %d (whole blocks transferred)", st.BytesDone, 5*4096)
	}
	if st.Ops != 5+3 {
		t.Fatalf("ops = %d, want 8 (one per block plus one per fsync)", st.Ops)
	}
}

func TestWriteDataIsFree(t *testing.T) {
	d := New(fastConfig())
	for _, n := range []int{0, 1, 1 << 20} {
		if err := d.WriteData(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	if d.Stats().Ops != 0 || d.Stats().BusyTime != 0 {
		t.Fatalf("cache writes charged the device: %+v", d.Stats())
	}
	d.Sync()
	if d.Stats().Ops == 0 {
		t.Fatal("Sync did not charge the cached bytes")
	}
	// Nothing cached: Sync is the fsync alone; a zero-byte write adds
	// no block.
	before := d.Stats()
	writeSync(t, d, 0)
	if got := d.Stats(); got.Ops-before.Ops != 1 || got.BlocksDone != before.BlocksDone {
		t.Fatalf("empty Sync charged %d ops / %d blocks, want 1 / 0",
			got.Ops-before.Ops, got.BlocksDone-before.BlocksDone)
	}
}

func TestSyncChargesBlocksThenFsync(t *testing.T) {
	// The cached blocks are one device request and the fsync a second,
	// in that order: the latency samples are drawn block request first.
	cfg := fastConfig()
	cfg.Sigma = 0.5
	cfg.Seed = 7
	d := New(cfg)
	writeSync(t, d, 5000) // 2 blocks
	lat := xrand.NewLogNormal(xrand.New(cfg.Seed),
		float64(cfg.MedianLatency)/float64(time.Millisecond), cfg.Sigma, cfg.TailP, cfg.TailX)
	blocks := time.Duration(2*lat.Sample()*float64(time.Millisecond)) + 2*4096*cfg.PerByte
	fsync := time.Duration(lat.Sample() * float64(time.Millisecond))
	if got, want := d.Stats().BusyTime, blocks+fsync; got != want {
		t.Fatalf("busy = %v, want %v (blocks %v, then fsync %v)", got, want, blocks, fsync)
	}
}

func TestNoPlanDoesNotKeepBytes(t *testing.T) {
	d := New(fastConfig())
	writeSync(t, d, 1<<20)
	defer func() {
		if recover() == nil {
			t.Fatal("DurableImage without a fault plan should panic")
		}
	}()
	d.DurableImage()
}

func TestFsyncTakesTime(t *testing.T) {
	d := New(fastConfig())
	start := time.Now()
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) <= 0 || d.Stats().BusyTime <= 0 {
		t.Fatal("fsync reported no elapsed time")
	}
	if d.Stats().Ops != 1 {
		t.Fatal("fsync not counted")
	}
}

func TestSerialization(t *testing.T) {
	// With k concurrent writers on one device, total elapsed must be at
	// least the sum of service times (requests serialize).
	cfg := fastConfig()
	cfg.Sigma = 0 // deterministic 50µs per op
	d := New(cfg)
	const k = 8
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Sync()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed < k*40*time.Microsecond {
		t.Errorf("elapsed %v too small for %d serialized 50µs ops", elapsed, k)
	}
	if d.Stats().MaxWaiters < 2 {
		t.Errorf("expected queueing, max waiters = %d", d.Stats().MaxWaiters)
	}
}

func TestWaitersReturnsToZero(t *testing.T) {
	d := New(fastConfig())
	d.ReadBlock()
	if w := d.Waiters(); w != 0 {
		t.Fatalf("waiters = %d after quiesce", w)
	}
}

func TestFaultStallDelaysOp(t *testing.T) {
	cfg := fastConfig()
	cfg.Sigma = 0
	// A plan whose first op always stalls (probability 1).
	cfg.Faults = faultfs.NewPlan(1, faultfs.Config{StallP: 1, StallDur: 5 * time.Millisecond})
	d := New(cfg)
	start := time.Now()
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e < 4*time.Millisecond {
		t.Errorf("stall not honoured: op took %v", e)
	}
}

func TestBlockSizeAmplification(t *testing.T) {
	// Writing a 100-byte record on a device with a huge block still pays
	// for a full block transfer: busy time grows with block size when the
	// payload is small. This is the mechanism behind fig. 4 (right).
	small := New(Config{MedianLatency: 20 * time.Microsecond, BlockSize: 1024, PerByte: 100 * time.Nanosecond, Seed: 1})
	big := New(Config{MedianLatency: 20 * time.Microsecond, BlockSize: 64 * 1024, PerByte: 100 * time.Nanosecond, Seed: 1})
	for _, d := range []*Sim{small, big} {
		writeSync(t, d, 100)
	}
	if small.Stats().BusyTime >= big.Stats().BusyTime {
		t.Errorf("big-block write should cost more for tiny payloads: small=%v big=%v",
			small.Stats().BusyTime, big.Stats().BusyTime)
	}
}

func TestReadAndWriteBlockCount(t *testing.T) {
	d := New(fastConfig())
	d.ReadBlock()
	d.WriteBlock()
	st := d.Stats()
	if st.Ops != 2 || st.BlocksDone != 2 {
		t.Fatalf("ops=%d blocks=%d, want 2/2", st.Ops, st.BlocksDone)
	}
}

func TestConcurrentStatsConsistency(t *testing.T) {
	d := New(fastConfig())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				d.WriteData(make([]byte, 100))
				d.Sync()
			}
		}()
	}
	wg.Wait()
	// Concurrent Syncs may share one another's cached bytes, so the
	// block count varies (each non-empty Sync holds < 1 block), but
	// every counter must agree with it.
	st := d.Stats()
	if st.BlocksDone < 1 || st.BlocksDone > 20 {
		t.Fatalf("blocks = %d, want 1..20", st.BlocksDone)
	}
	if st.Ops != 20+st.BlocksDone || st.BytesDone != st.BlocksDone*4096 {
		t.Fatalf("ops=%d bytes=%d inconsistent with 20 fsyncs + %d blocks", st.Ops, st.BytesDone, st.BlocksDone)
	}
}
