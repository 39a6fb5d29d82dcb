//go:build unix

package main

import (
	"syscall"
	"time"
)

// cpuTime is the CPU time this process has used so far, user plus
// system, all threads. The offline workloads run one goroutine, so on an
// idle machine it advances with the wall clock; unlike the wall clock it
// stands still while the hypervisor runs someone else on the vCPU
// (steal), which on a shared box is the largest noise there is.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only EFAULT and EINVAL, neither possible here
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
