//go:build !linux

package main

import "time"

// spinWindow is how long before a due time the pacer stops sleeping and
// yields in a loop instead: time.Sleep can wake a millisecond late.
const spinWindow = 1500 * time.Microsecond

func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }
