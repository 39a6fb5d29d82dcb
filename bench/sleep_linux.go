//go:build linux

package main

import (
	"syscall"
	"time"
)

// spinWindow is how long before a due time the pacer stops sleeping and
// yields in a loop instead. nanosleep wakes within about a tenth of a
// millisecond; the loop covers that.
const spinWindow = 200 * time.Microsecond

// Sleep blocks the calling thread in nanosleep(2). time.Sleep would park
// the goroutine on the runtime's timers, which an idle process serves
// from epoll_wait with a timeout in whole milliseconds: up to a
// millisecond late, most of a cache hit's latency.
func (wallClock) Sleep(d time.Duration) {
	deadline := time.Now().Add(d)
	for rem := d; rem > 0; rem = time.Until(deadline) {
		ts := syscall.NsecToTimespec(int64(rem))
		syscall.Nanosleep(&ts, nil) // cut short by a signal: sleep the rest
	}
}
