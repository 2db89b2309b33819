//go:build !linux

package main

import (
	"runtime"
	"time"
)

// pacer without timerfd: sleep to within two milliseconds of the due
// instant, then spin on the clock yielding the processor. Coarser
// than the Linux pacer (see pacer_linux.go); the lateness it causes is
// measured and reported like any other.
type pacer struct{}

func newPacer(time.Duration) (*pacer, error) { return &pacer{}, nil }
func (p *pacer) Close() error                { return nil }

func (p *pacer) waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 3*time.Millisecond {
			time.Sleep(d - 2*time.Millisecond)
			continue
		}
		runtime.Gosched()
	}
}
