package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vats/internal/admit"
	"vats/internal/buffer"
	"vats/internal/lock"
	"vats/internal/wal"
)

// snap is the state of the process and of one engine's layers at the
// edge of a measured window, read only through public Stats() calls,
// runtime.ReadMemStats and getrusage.
type snap struct {
	at   time.Time
	mem  runtime.MemStats
	cpu  time.Duration
	lock lock.Stats
	buf  buffer.Stats
	wal  wal.Stats
	adm  admit.Stats
}

func takeSnap(in *instance) snap {
	s := snap{}
	runtime.ReadMemStats(&s.mem)
	s.cpu = processCPU()
	s.lock = in.db.Locks().Stats()
	s.buf = in.db.Pool().Stats()
	s.wal = in.db.Log().Stats()
	if in.srv != nil {
		s.adm = in.srv.Admitter().Stats()
	}
	s.at = time.Now()
	return s
}

// window is what happened between two snaps. Windows of several engine
// instances (TPC-C rounds, search probes) add up.
type window struct {
	wall, cpu     time.Duration
	mallocs       uint64
	allocBytes    uint64
	gcs           uint64
	gcPausesUs    []float64
	lock          lock.Stats
	buf           buffer.Stats
	wal           wal.Stats
	admitted      int64
	shed          int64
	logDev        deviceWindow
	dataDev       deviceWindow
	admitWaitP99s []float64 // µs, sampled once per admission window
}

func between(a, b snap) window {
	w := window{
		wall:       b.at.Sub(a.at),
		cpu:        b.cpu - a.cpu,
		mallocs:    b.mem.Mallocs - a.mem.Mallocs,
		allocBytes: b.mem.TotalAlloc - a.mem.TotalAlloc,
		gcs:        uint64(b.mem.NumGC - a.mem.NumGC),
		lock: lock.Stats{
			Acquires:  b.lock.Acquires - a.lock.Acquires,
			Waits:     b.lock.Waits - a.lock.Waits,
			WaitTime:  b.lock.WaitTime - a.lock.WaitTime,
			Deadlocks: b.lock.Deadlocks - a.lock.Deadlocks,
			Timeouts:  b.lock.Timeouts - a.lock.Timeouts,
		},
		buf: buffer.Stats{
			Hits:       b.buf.Hits - a.buf.Hits,
			Misses:     b.buf.Misses - a.buf.Misses,
			Evictions:  b.buf.Evictions - a.buf.Evictions,
			WriteBacks: b.buf.WriteBacks - a.buf.WriteBacks,
		},
		wal: wal.Stats{
			Appends:        b.wal.Appends - a.wal.Appends,
			Flushes:        b.wal.Flushes - a.wal.Flushes,
			Bytes:          b.wal.Bytes - a.wal.Bytes,
			GroupedCommits: b.wal.GroupedCommits - a.wal.GroupedCommits,
		},
		admitted: b.adm.Admitted - a.adm.Admitted,
		shed:     b.adm.ShedTotal() - a.adm.ShedTotal(),
	}
	w.buf.Mutex.WaitTime = b.buf.Mutex.WaitTime - a.buf.Mutex.WaitTime
	// PauseNs is a ring of the last 256 pauses; the newest sits at
	// (NumGC+255)%256.
	for g := a.mem.NumGC + 1; g <= b.mem.NumGC && b.mem.NumGC-g < 256; g++ {
		w.gcPausesUs = append(w.gcPausesUs, float64(b.mem.PauseNs[(g+255)%256])/1e3)
	}
	return w
}

func (w *window) add(o window) {
	w.wall += o.wall
	w.cpu += o.cpu
	w.mallocs += o.mallocs
	w.allocBytes += o.allocBytes
	w.gcs += o.gcs
	w.gcPausesUs = append(w.gcPausesUs, o.gcPausesUs...)
	w.lock.Acquires += o.lock.Acquires
	w.lock.Waits += o.lock.Waits
	w.lock.WaitTime += o.lock.WaitTime
	w.lock.Deadlocks += o.lock.Deadlocks
	w.lock.Timeouts += o.lock.Timeouts
	w.buf.Hits += o.buf.Hits
	w.buf.Misses += o.buf.Misses
	w.buf.Evictions += o.buf.Evictions
	w.buf.WriteBacks += o.buf.WriteBacks
	w.buf.Mutex.WaitTime += o.buf.Mutex.WaitTime
	w.wal.Appends += o.wal.Appends
	w.wal.Flushes += o.wal.Flushes
	w.wal.Bytes += o.wal.Bytes
	w.wal.GroupedCommits += o.wal.GroupedCommits
	w.admitted += o.admitted
	w.shed += o.shed
	w.logDev.add(o.logDev)
	w.dataDev.add(o.dataDev)
	w.admitWaitP99s = append(w.admitWaitP99s, o.admitWaitP99s...)
}

func (d *deviceWindow) add(o deviceWindow) {
	d.writeData.add(o.writeData)
	d.sync.add(o.sync)
	d.readBlock.add(o.readBlock)
	d.writeBlock.add(o.writeBlock)
}

func (w *opWindow) add(o opWindow) {
	w.n += o.n
	w.bytes += o.bytes
	w.busy += o.busy
	w.lat = append(w.lat, o.lat...)
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// generatorHeap is the size in bytes of the sample buffers the load
// generator holds for the open-loop run in progress (see wireLoad.run),
// or 0 between runs. The heap sampler leaves them out, so the heap it
// reports is the program's and not the generator's.
var generatorHeap atomic.Int64

// heapSampler samples HeapInuse through runtime/metrics (which, unlike
// ReadMemStats, does not stop the world), less generatorHeap, and keeps
// the highest sample of each second.
type heapSampler struct {
	stop   chan struct{}
	done   sync.WaitGroup
	perSec []float64 // bytes
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		second := time.Now()
		var peak uint64
		for {
			metrics.Read(samples)
			inuse := int64(samples[0].Value.Uint64()+samples[1].Value.Uint64()) - generatorHeap.Load()
			peak = max(peak, uint64(max(inuse, 0)))
			select {
			case <-h.stop:
				h.perSec = append(h.perSec, float64(peak))
				return
			case now := <-t.C:
				if now.Sub(second) >= time.Second {
					h.perSec = append(h.perSec, float64(peak))
					second, peak = now, 0
				}
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the per-second peaks in bytes.
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	h.done.Wait()
	return h.perSec
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
