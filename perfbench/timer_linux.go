package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper waits until a due time with microsecond precision. The
// runtime's own timers round sub-millisecond sleeps of an idle process
// up to about a millisecond, which would show up as generator lateness
// in every open-loop latency; a timerfd wakes the runtime's network
// poller when it fires instead, and blocks no thread while waiting.
type sleeper struct {
	f  *os.File
	fd uintptr
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &sleeper{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// until blocks until t (returning at once if t has passed).
func (s *sleeper) until(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	// struct itimerspec {it_interval, it_value}, each {sec, nsec}.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0,
		uintptr(unsafe.Pointer(&spec[0])), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := s.f.Read(expirations[:])
	return err
}

func (s *sleeper) close() error { return s.f.Close() }
