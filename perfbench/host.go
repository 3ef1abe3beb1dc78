package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Host time is read only here. It measures how long the machine took to
// run the simulation and never feeds a simulated latency.

func hostNow() time.Time {
	return time.Now() //vet:allow virtualtime host cost of the simulation run, not simulated latency
}

func hostSince(t time.Time) float64 {
	return time.Since(t).Seconds() //vet:allow virtualtime host cost of the simulation run, not simulated latency
}

// cpuSeconds returns the host CPU time, user and system, the process has
// used so far. On a shared machine the wall-clock rate of a run moves with
// the neighbours' load; the CPU time it takes does much less.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// afterHost calls fn once seconds of host time have passed; the returned
// func cancels it.
func afterHost(seconds float64, fn func()) (cancel func()) {
	t := time.AfterFunc(time.Duration(seconds*float64(time.Second)), fn) //vet:allow virtualtime the measured phase lasts a fixed host time
	return func() { t.Stop() }
}

// unit is one repetition of the measured phase: a host-time window of a
// closed-loop run, or one round of an open-loop run.
type unit struct {
	wallS float64
	cpuS  float64 // host CPU seconds
	ops   int64
	peak  uint64 // live heap high-water mark, bytes
}

// hostSampler watches the measured phase on host time. Every 5 ms it
// reads the live heap as marked by the garbage collector's latest cycle
// (unlike the raw heap size, it does not depend on when the collector
// happened to run), and it cuts the phase into units, by itself every
// window seconds or when cut is called.
type hostSampler struct {
	ops    *atomic.Int64
	stopCh chan struct{}
	done   sync.WaitGroup

	mu    sync.Mutex
	start time.Time
	cpu0  float64
	ops0  int64
	peak  uint64
	max   uint64
	units []unit
}

const heapMetric = "/gc/heap/live:bytes"

// startHostSampler starts sampling; ops counts the completed operations.
// With window > 0 it cuts a unit every window seconds.
func startHostSampler(ops *atomic.Int64, window float64) *hostSampler {
	h := &hostSampler{ops: ops, stopCh: make(chan struct{}), start: hostNow(), cpu0: cpuSeconds()}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(5 * time.Millisecond) //vet:allow virtualtime samples host memory on host time
		defer tick.Stop()
		s := []metrics.Sample{{Name: heapMetric}}
		for {
			metrics.Read(s)
			h.mu.Lock()
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			due := window > 0 && hostSince(h.start) >= window
			h.mu.Unlock()
			if due {
				h.cut()
			}
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// cut closes the current unit and opens the next.
func (h *hostSampler) cut() {
	h.mu.Lock()
	defer h.mu.Unlock()
	now, cpu, ops := hostNow(), cpuSeconds(), h.ops.Load()
	h.units = append(h.units, unit{wallS: now.Sub(h.start).Seconds(), cpuS: cpu - h.cpu0,
		ops: ops - h.ops0, peak: h.peak})
	if h.peak > h.max {
		h.max = h.peak
	}
	h.start, h.cpu0, h.ops0, h.peak = now, cpu, ops, 0
}

// stop closes the last unit, ends the sampler and returns the units and
// the live heap high-water mark of the whole phase.
func (h *hostSampler) stop() ([]unit, uint64) {
	close(h.stopCh)
	h.done.Wait()
	h.cut()
	return h.units, h.max
}
