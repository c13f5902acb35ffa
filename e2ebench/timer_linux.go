package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// preciseTimer waits for sub-millisecond intervals without spinning.
// The Go runtime rounds a parked timer up to the next millisecond when
// the process is otherwise idle (time.Sleep(100µs) takes about 1ms), so
// a pacer built on time.Sleep would run up to a millisecond late. A
// timerfd read instead parks the goroutine in the netpoller, which the
// kernel wakes at the timer's expiry with microsecond precision.
type preciseTimer struct {
	fd int
	f  *os.File
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

type itimerspec struct {
	interval, value syscall.Timespec
}

func newPreciseTimer() (*preciseTimer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking fd makes os.NewFile register it with the netpoller.
	return &preciseTimer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleep returns after d has elapsed; d <= 0 returns at once.
func (t *preciseTimer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(t.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	if _, err := t.f.Read(expirations[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

func (t *preciseTimer) close() error { return t.f.Close() }
