package disk

import (
	"sync"

	"vats/internal/faultfs"
)

// Every device is an append-only stream with a volatile write cache:
// WriteData appends bytes to the cache and Sync persists it. When
// Config.Faults carries a faultfs.Plan the device also keeps the bytes,
// and the plan injects transient errors, silently dropped fsyncs,
// stalls, and the machine crash point. The persisted byte image is
// what crash recovery reads back — so torn writes, lost suffixes and
// lying fsyncs all surface exactly where they would on real hardware.
//
// State is a single logical byte stream:
//
//	full[0:durableLen]  — on the platter; survives a crash
//	full[durableLen:]   — in the volatile write cache
//	full[0:ackedLen]    — what the device has *claimed* is durable
//
// ackedLen ≥ durableLen exactly when a dropped fsync lied; the torture
// harness uses the gap to tell forgivable losses (the device lied) from
// real durability bugs (the WAL acked what it never synced).
type faultState struct {
	mu         sync.Mutex
	full       []byte
	durableLen int
	ackedLen   int
	lies       int
}

// Plan returns the attached fault plan (nil when not fault-capable).
func (d *Sim) Plan() *faultfs.Plan { return d.cfg.Faults }

// WriteData appends p to the device's volatile write cache. The cache
// is memory, so the write costs no device time; Sync charges it.
// Without a fault plan the device only counts the bytes. Under a plan
// the write may fail transiently (ErrIO, no bytes accepted), stall, or
// be the crash point, in which case a seeded prefix of p reaches the
// cache before the machine dies (a torn write; the cache is volatile,
// so those bytes are lost anyway unless a torn fsync follows).
func (d *Sim) WriteData(p []byte) error {
	plan := d.cfg.Faults
	if plan == nil {
		d.cached.Add(int64(len(p)))
		return nil
	}
	if plan.Crashed() {
		return faultfs.ErrCrashed
	}
	o := plan.Next(faultfs.OpWrite)
	if o.Stall > 0 {
		d.serveStalled(0, 0, 0, o.Stall)
	}
	switch {
	case o.Crash:
		n := int(o.Torn * float64(len(p)))
		d.fs.mu.Lock()
		d.fs.full = append(d.fs.full, p[:n]...)
		d.fs.mu.Unlock()
		return faultfs.ErrCrashed
	case o.Err:
		return faultfs.ErrIO
	}
	d.cached.Add(int64(len(p)))
	d.fs.mu.Lock()
	d.fs.full = append(d.fs.full, p...)
	d.fs.mu.Unlock()
	return nil
}

// Sync flushes the write cache to the platter. It charges two device
// requests, in this order: the bytes written since the previous Sync,
// rounded up to whole blocks, and the fsync. Each block is a separate
// I/O operation that transfers BlockSize bytes even if the payload only
// fills part of it: the trade-off behind the paper's fig. 4 (right) —
// larger blocks mean fewer operations per transaction, but once log
// records occupy only a small part of a block, the wasted transfer
// outweighs the savings. The fsync is a single operation with the
// device's full latency profile. Outcomes under a fault plan:
//
//   - transient error: nothing persists, ErrIO returned;
//   - dropped fsync:   nothing persists, success returned (the device
//     lies; the bytes persist at the next honest Sync);
//   - crash point:     a seeded prefix of the cache persists (a torn
//     flush), then the machine dies (ErrCrashed);
//   - otherwise:       the whole cache persists.
func (d *Sim) Sync() error {
	var o faultfs.Outcome
	plan := d.cfg.Faults
	if plan != nil {
		if plan.Crashed() {
			return faultfs.ErrCrashed
		}
		o = plan.Next(faultfs.OpFsync)
	}
	if n := int(d.cached.Swap(0)); n > 0 {
		blocks := (n + d.cfg.BlockSize - 1) / d.cfg.BlockSize
		d.serve(blocks, blocks, blocks*d.cfg.BlockSize)
	}
	d.serveStalled(1, 0, 0, o.Stall)
	if plan == nil {
		return nil
	}
	d.fs.mu.Lock()
	defer d.fs.mu.Unlock()
	switch {
	case o.Crash:
		pending := len(d.fs.full) - d.fs.durableLen
		d.fs.durableLen += int(o.Torn * float64(pending))
		return faultfs.ErrCrashed
	case o.Err:
		return faultfs.ErrIO
	case o.DropFsync:
		d.fs.ackedLen = len(d.fs.full)
		d.fs.lies++
		return nil
	}
	d.fs.durableLen = len(d.fs.full)
	d.fs.ackedLen = len(d.fs.full)
	return nil
}

// DurableImage returns a copy of the bytes that actually survived: the
// persisted prefix of the device's logical stream. This is what crash
// recovery decodes.
func (d *Sim) DurableImage() []byte {
	d.mustFault()
	d.fs.mu.Lock()
	defer d.fs.mu.Unlock()
	return append([]byte(nil), d.fs.full[:d.fs.durableLen]...)
}

// AckedImage returns a copy of the bytes the device *claimed* were
// durable — DurableImage plus anything a dropped fsync lied about.
func (d *Sim) AckedImage() []byte {
	d.mustFault()
	d.fs.mu.Lock()
	defer d.fs.mu.Unlock()
	return append([]byte(nil), d.fs.full[:d.fs.ackedLen]...)
}

// Lies returns how many fsyncs the device silently dropped.
func (d *Sim) Lies() int {
	d.mustFault()
	d.fs.mu.Lock()
	defer d.fs.mu.Unlock()
	return d.fs.lies
}

// WrittenLen returns the total bytes ever accepted into the cache.
func (d *Sim) WrittenLen() int {
	d.mustFault()
	d.fs.mu.Lock()
	defer d.fs.mu.Unlock()
	return len(d.fs.full)
}

func (d *Sim) mustFault() {
	if d.fs == nil {
		panic("disk: fault-state accessor on a device without a fault plan")
	}
}
