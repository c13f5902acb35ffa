package main

import (
	"sync"
	"time"

	"vats/internal/disk"
)

// timedDevice wraps a disk.Device from outside the engine: every
// interface method is forwarded (by embedding), and the four calls that
// move bytes — WriteData, Sync, ReadBlock and WriteBlock — are counted
// and timed. It is how the traced run sees the log and data devices
// without instrumentation inside the program.
type timedDevice struct {
	disk.Device

	writeData, sync, readBlock, writeBlock opTimer
}

func newTimedDevice(d disk.Device) *timedDevice { return &timedDevice{Device: d} }

func (t *timedDevice) WriteData(p []byte) error {
	start := time.Now()
	err := t.Device.WriteData(p)
	t.writeData.add(time.Since(start), int64(len(p)))
	return err
}

func (t *timedDevice) Sync() error {
	start := time.Now()
	err := t.Device.Sync()
	t.sync.add(time.Since(start), 0)
	return err
}

func (t *timedDevice) ReadBlock() time.Duration {
	start := time.Now()
	d := t.Device.ReadBlock()
	t.readBlock.add(time.Since(start), int64(t.Config().BlockSize))
	return d
}

func (t *timedDevice) WriteBlock() time.Duration {
	start := time.Now()
	d := t.Device.WriteBlock()
	t.writeBlock.add(time.Since(start), int64(t.Config().BlockSize))
	return d
}

// deviceWindow is what one device did during a measured window.
type deviceWindow struct {
	writeData, sync, readBlock, writeBlock opWindow
}

// take returns the device's activity since the previous take and starts
// a new window.
func (t *timedDevice) take() deviceWindow {
	return deviceWindow{
		writeData:  t.writeData.take(),
		sync:       t.sync.take(),
		readBlock:  t.readBlock.take(),
		writeBlock: t.writeBlock.take(),
	}
}

// opTimer accumulates one kind of device call.
type opTimer struct {
	mu sync.Mutex
	w  opWindow
}

// opWindow is one kind of device call over a window: how many, how many
// bytes, the summed service time and each call's latency.
type opWindow struct {
	n     int64
	bytes int64
	busy  time.Duration
	lat   []float64 // µs
}

func (o *opTimer) add(d time.Duration, bytes int64) {
	o.mu.Lock()
	o.w.n++
	o.w.bytes += bytes
	o.w.busy += d
	o.w.lat = append(o.w.lat, float64(d)/float64(time.Microsecond))
	o.mu.Unlock()
}

func (o *opTimer) take() opWindow {
	o.mu.Lock()
	w := o.w
	o.w = opWindow{}
	o.mu.Unlock()
	return w
}
