package main

import (
	"path/filepath"
	"testing"
	"time"
)

// The timing wrapper's counts must agree with the layers' own counters
// over a traced run: one log Sync per WAL flush, and every byte the WAL
// wrote reaching the file device.
func TestTimedDeviceAgreesWithLayerCounters(t *testing.T) {
	in, err := openInstance(filepath.Join(t.TempDir(), "db"), true)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	if err := loadKV(in.db, 512); err != nil {
		t.Fatal(err)
	}
	if err := in.serve(); err != nil {
		t.Fatal(err)
	}
	wl, err := newWireLoad(in.addr, 2, 512, 1, updateMix(512))
	if err != nil {
		t.Fatal(err)
	}
	defer wl.close()

	logFile := in.files[0]
	in.log.take()
	in.data.take()
	wal0, file0 := in.db.Log().Stats(), logFile.Stats()
	run, err := wl.run(400, 500*time.Millisecond, 100*time.Millisecond, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wal1, file1 := in.db.Log().Stats(), logFile.Stats()
	dev := in.log.take()

	if err := checkProtocol(run); err != nil {
		t.Fatal(err)
	}
	if run.writes == 0 {
		t.Fatal("no acknowledged writes")
	}
	if got, want := dev.sync.n, wal1.Flushes-wal0.Flushes; got != want {
		t.Errorf("log Sync calls = %d, WAL flushes = %d", got, want)
	}
	if got, want := dev.writeData.bytes, file1.BytesDone-file0.BytesDone; got != want {
		t.Errorf("log WriteData bytes = %d, file BytesDone = %d", got, want)
	}
	if dev.sync.n == 0 || dev.writeData.n == 0 || len(dev.sync.lat) != int(dev.sync.n) {
		t.Errorf("wrapper saw %d syncs, %d writes, %d sync latencies", dev.sync.n, dev.writeData.n, len(dev.sync.lat))
	}
}
