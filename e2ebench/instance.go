package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vats/internal/admit"
	"vats/internal/buffer"
	"vats/internal/disk"
	"vats/internal/engine"
	"vats/internal/lock"
	"vats/internal/server"
	"vats/internal/wal"
)

// engineConfig is the one engine configuration every workload runs:
// the paper's final system, VATS lock scheduling with Lazy LRU, on
// real-file log and data devices with eager flush (one fdatasync per
// log Sync). Every other engine.Config field keeps its default,
// including the 256-page buffer pool.
const engineConfig = "scheduler=VATS lru=LazyLRU flush=EagerFlush log=disk.File(fdatasync per Sync) data=disk.File(.pages) other engine.Config fields default"

// serverAdmit mirrors vatsd's defaults: default slots and queue, with
// the feedback controller holding a 20ms queue-wait p99.
var serverAdmit = admit.Config{TargetP99: 20 * time.Millisecond}

// instance is one engine on real files in its own directory, optionally
// behind an in-process vatsd server. With trace set, both devices sit
// behind timing wrappers.
type instance struct {
	dir   string
	files []*disk.File
	log   *timedDevice // nil unless traced
	data  *timedDevice // nil unless traced
	db    *engine.DB
	srv   *server.Server
	addr  string
}

func openInstance(dir string, trace bool) (*instance, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("create data dir: %w", err)
	}
	in := &instance{dir: dir}
	open := func(name string, prealloc int64) (disk.Device, error) {
		f, err := disk.OpenFile(disk.FileConfig{
			Path:          filepath.Join(dir, name),
			Name:          name,
			Mode:          disk.FdatasyncPerSync,
			PreallocBytes: prealloc,
			BlockSize:     4096,
		})
		if err != nil {
			return nil, err
		}
		in.files = append(in.files, f)
		return f, nil
	}
	logDev, err := open("log.wal", 4<<20)
	if err != nil {
		in.close()
		return nil, err
	}
	dataDev, err := open("data", 0)
	if err != nil {
		in.close()
		return nil, err
	}
	if trace {
		in.log, in.data = newTimedDevice(logDev), newTimedDevice(dataDev)
		logDev, dataDev = in.log, in.data
	}
	in.db = engine.Open(engine.Config{
		Scheduler:   lock.VATS{},
		LRUPolicy:   buffer.LazyLRU,
		FlushPolicy: wal.EagerFlush,
		DataDevice:  dataDev,
		LogDevices:  []disk.Device{logDev},
	})
	return in, nil
}

// serve starts an in-process server on a loopback port.
func (in *instance) serve() error {
	in.srv = server.New(in.db, server.Config{Admit: serverAdmit})
	addr, err := in.srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	in.addr = addr.String()
	return nil
}

// close stops the server and the engine, closes the device files and
// removes the instance's directory.
func (in *instance) close() {
	if in.srv != nil {
		in.srv.Close()
	}
	if in.db != nil {
		in.db.Close()
	}
	for _, f := range in.files {
		f.Close()
	}
	os.RemoveAll(in.dir)
}
