package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// A service workload's latencies are wall-clock times, and on a virtual
// machine the wall clock keeps running while the hypervisor gives the
// vCPUs to someone else. The guest kernel counts that as steal time in
// /proc/stat. stealSampler reads the counter a few times a second for
// the length of a run, so that a sample taken while more than stealLimit
// of the CPUs' time was stolen can be left out: it measured the
// neighbours, not the program. How many were left out is printed with
// every run. Where /proc/stat does not exist, or when more than half of
// a sample would go, nothing is left out.
const (
	stealWindow = 100 * time.Millisecond
	stealLimit  = 0.05
	stealTick   = 10 * time.Millisecond // /proc/stat counts in USER_HZ = 100 ticks
)

type stealSampler struct {
	ncpu  int
	at    []time.Time // sample instants
	ticks []uint64    // cumulative steal ticks at each

	stop chan struct{}
	done sync.WaitGroup
}

// readSteal returns the cumulative steal ticks of all CPUs.
func readSteal() (uint64, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseUint(f[8], 10, 64)
	return v, err == nil
}

func startStealSampler() *stealSampler {
	s := &stealSampler{ncpu: runtime.NumCPU(), stop: make(chan struct{})}
	s.sample()
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(stealWindow)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.sample()
			case <-s.stop:
				s.sample()
				return
			}
		}
	}()
	return s
}

func (s *stealSampler) sample() {
	if v, ok := readSteal(); ok {
		s.at = append(s.at, time.Now())
		s.ticks = append(s.ticks, v)
	}
}

// Stop takes a last sample and ends the sampler; only then may the
// timeline be read.
func (s *stealSampler) Stop() {
	close(s.stop)
	s.done.Wait()
}

// window i spans at[i] to at[i+1].
func (s *stealSampler) windows() int { return max(len(s.at)-1, 0) }

// stolen is the share of the CPUs' time stolen during window i.
func (s *stealSampler) stolen(i int) float64 {
	lost := time.Duration(s.ticks[i+1]-s.ticks[i]) * stealTick
	return ratio(float64(lost), float64(s.at[i+1].Sub(s.at[i]))*float64(s.ncpu))
}

// dirty reports whether [a, b] overlaps a window that lost more than
// stealLimit.
func (s *stealSampler) dirty(a, b time.Time) bool {
	for i := 0; i < s.windows(); i++ {
		if s.at[i].Before(b) && s.at[i+1].After(a) && s.stolen(i) > stealLimit {
			return true
		}
	}
	return false
}

// keepClean returns the members of xs whose interval is not dirty, and
// how many it left out. If that would be more than half, it keeps all:
// a run stolen from throughout has no clean part to report.
func keepClean[T any](s *stealSampler, xs []T, interval func(T) (time.Time, time.Time)) (kept []T, dropped int) {
	for _, x := range xs {
		if a, b := interval(x); !s.dirty(a, b) {
			kept = append(kept, x)
		}
	}
	if len(kept)*2 < len(xs) {
		return xs, 0
	}
	return kept, len(xs) - len(kept)
}

// rate counts the events at the given instants per second of [from, to],
// over the clean windows' share of it only — or over the whole interval
// if under half of it is clean.
func (s *stealSampler) rate(events []time.Time, from, to time.Time) (perSecond float64, cleanShare float64) {
	var n int
	var clean time.Duration
	for i := 0; i < s.windows(); i++ {
		lo, hi := s.at[i], s.at[i+1]
		if lo.Before(from) {
			lo = from
		}
		if hi.After(to) {
			hi = to
		}
		if !lo.Before(hi) || s.stolen(i) > stealLimit {
			continue
		}
		clean += hi.Sub(lo)
		for _, e := range events {
			if !e.Before(lo) && e.Before(hi) {
				n++
			}
		}
	}
	if clean*2 < to.Sub(from) {
		return ratio(float64(len(events)), to.Sub(from).Seconds()), 0 // 0: nothing was left out
	}
	return ratio(float64(n), clean.Seconds()), ratio(float64(clean), float64(to.Sub(from)))
}
