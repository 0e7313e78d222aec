//go:build !linux

package main

import "time"

// sleeper falls back to the runtime's timers where timerfd is missing;
// expect up to a millisecond of generator lateness there.
type sleeper struct{}

func newSleeper() (*sleeper, error) { return &sleeper{}, nil }

func (s *sleeper) until(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (s *sleeper) close() error { return nil }
