//go:build !unix

package main

import "time"

var processStart = time.Now()

// cpuTime falls back to the wall clock where getrusage does not exist.
func cpuTime() time.Duration { return time.Since(processStart) }
