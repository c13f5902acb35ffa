package disk

import (
	"time"

	"vats/internal/faultfs"
)

// Device is the storage-device seam every durability layer (WAL, buffer
// pool, checkpointer) writes through. Two implementations exist:
//
//   - Sim (New): the simulated single-spindle latency model the shape
//     experiments run against — service times are sampled, and written
//     bytes are counted, but only stored when a fault plan is attached;
//   - File (OpenFile): a real OS file — every WriteData is a pwrite,
//     every Sync an fdatasync (or a no-op under O_DSYNC), so the
//     BENCH numbers measure hardware, not a model.
//
// The fault hooks (Plan, DurableImage, ...) make crash semantics
// uniform across both: a fault plan adjudicates every operation by
// machine-wide op index, and the durable/acked byte images are what
// recovery and the torture auditors read back, whether the bytes live
// in memory or on disk.
type Device interface {
	// Block operations (the buffer pool's page reads and write-backs).
	// They return the time spent.
	ReadBlock() time.Duration
	WriteBlock() time.Duration

	// Stream operations (the WAL's framed log writes): WriteData
	// appends to the device's volatile write cache, Sync persists it.
	// WriteData does not retain p after it returns.
	WriteData(p []byte) error
	Sync() error

	// Plan returns the attached fault plan (nil when fault-free).
	Plan() *faultfs.Plan

	// Crash-image accessors. DurableImage is the persisted prefix
	// recovery decodes; AckedImage additionally includes bytes a
	// dropped fsync lied about. Lies counts dropped fsyncs and
	// WrittenLen the bytes ever accepted.
	DurableImage() []byte
	AckedImage() []byte
	Lies() int
	WrittenLen() int

	// Introspection.
	Stats() Stats
	Waiters() int
	Config() Config

	// Close releases OS resources (a no-op for simulated devices).
	Close() error
}

// Interface conformance.
var (
	_ Device = (*Sim)(nil)
	_ Device = (*File)(nil)
)
