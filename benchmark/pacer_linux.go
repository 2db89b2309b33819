//go:build linux

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps until a due instant with microsecond precision. The Go
// runtime rounds every timer sleep of an idle processor up to a whole
// millisecond (epoll_wait's timeout unit) — fifteen times the hot
// path's service time — and a goroutine that spins on the clock with
// runtime.Gosched instead either starves the network poller (one
// spinner per processor: responses sit unread, p99 4 ms on a 60 µs
// round trip) or makes the scheduler wake and park the idle processors
// on every turn (fewer spinners). A timerfd is a file the runtime's
// poller waits on like a socket, armed by a high-resolution kernel
// timer: the goroutine parks in Read and is woken when the timer
// fires. One pacer serves one goroutine.
type pacer struct {
	f      *os.File
	rc     syscall.RawConn
	margin time.Duration
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
)

// newPacer returns a pacer for a schedule whose requests are gap
// apart on average.
func newPacer(gap time.Duration) (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	f := os.NewFile(fd, "timerfd")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &pacer{f: f, rc: rc, margin: spinMargin(gap)}, nil
}

func (p *pacer) Close() error { return p.f.Close() }

// spinMargin is how long before the due instant the timer is set to
// fire; the rest is spun away on the clock, so a wake-up that comes
// late still sends on time. A processor that has gone idle between two
// requests wakes hundreds of microseconds late on the reference box (a
// halted virtual CPU), so sparse schedules get a wide margin; dense
// ones keep the processors awake and must not spin them away: an
// eighth of the gap, between 10 and 400 µs.
func spinMargin(gap time.Duration) time.Duration {
	return min(max(gap/8, 10*time.Microsecond), 400*time.Microsecond)
}

// waitUntil returns at t (or at once when t has passed).
func (p *pacer) waitUntil(t time.Time) {
	if d := time.Until(t) - p.margin; d > 0 {
		// struct itimerspec{it_interval, it_value}: one shot after d.
		spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))}
		var errno syscall.Errno
		err := p.rc.Control(func(fd uintptr) {
			_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		})
		if err == nil && errno == 0 {
			var expirations [8]byte
			_, _ = p.f.Read(expirations[:]) // parks until the timer fires
		}
		// On any error fall through: the spin below still returns at t.
	}
	for time.Until(t) > 0 {
	}
}
