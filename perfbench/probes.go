package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/faas"
	"lambdafs/internal/namespace"
	"lambdafs/internal/rpc"
	"lambdafs/internal/store"
	"lambdafs/internal/trace"
)

// probes are the traced run's wrappers around the program's interface
// boundaries: the store and coordinator handed to core.NewSystem and the
// invoker handed to rpc. Each counts its calls and times them in virtual
// µs; the underlying implementation does all the work.
type probes struct {
	clk clock.Clock

	resolve samples // store path resolutions
	tx      samples // store transactions, Begin to Commit/Abort
	inv     samples // coordinator INV/ACK rounds
	invoke  samples // HTTP invocations through the FaaS platform

	instancesPeak atomic.Int64
}

// samples is a concurrency-safe list of virtual durations in µs.
type samples struct {
	mu sync.Mutex
	us []int64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.us = append(s.us, d.Microseconds())
	s.mu.Unlock()
}

func (s *samples) reset() {
	s.mu.Lock()
	s.us = nil
	s.mu.Unlock()
}

// count and quantile are read after the clients have stopped.
func (s *samples) count() int { return len(s.us) }

func (s *samples) quantile(q float64) float64 {
	sort.Slice(s.us, func(i, j int) bool { return s.us[i] < s.us[j] })
	return quantileSorted(s.us, q)
}

// quantileSorted returns the nearest-rank q-quantile of sorted v (0 when
// v is empty).
func quantileSorted(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	i := int(q*float64(len(v))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(v) {
		i = len(v) - 1
	}
	return float64(v[i])
}

// reset drops what the warm-up recorded.
func (p *probes) reset() {
	p.resolve.reset()
	p.tx.reset()
	p.inv.reset()
	p.invoke.reset()
	p.instancesPeak.Store(0)
}

// fullStore is the capability set core.Engine looks for on its store.
type fullStore interface {
	store.TracedStore
	store.BatchedStore
}

type storeProbe struct {
	fullStore
	p *probes
}

func (p *probes) wrapStore(s fullStore) *storeProbe { return &storeProbe{fullStore: s, p: p} }

func (s *storeProbe) Begin(owner string) store.Tx {
	return &txProbe{Tx: s.fullStore.Begin(owner), p: s.p, start: s.p.clk.Now()}
}

func (s *storeProbe) BeginTraced(owner string, tc *trace.Ctx) store.Tx {
	return &txProbe{Tx: s.fullStore.BeginTraced(owner, tc), p: s.p, start: s.p.clk.Now()}
}

func (s *storeProbe) ResolvePath(path string) ([]*namespace.INode, error) {
	start := s.p.clk.Now()
	defer func() { s.p.resolve.add(s.p.clk.Since(start)) }()
	return s.fullStore.ResolvePath(path)
}

func (s *storeProbe) ResolvePathTraced(path string, tc *trace.Ctx) ([]*namespace.INode, error) {
	start := s.p.clk.Now()
	defer func() { s.p.resolve.add(s.p.clk.Since(start)) }()
	return s.fullStore.ResolvePathTraced(path, tc)
}

func (s *storeProbe) ResolvePathBatched(path string, tc *trace.Ctx) ([]*namespace.INode, error) {
	start := s.p.clk.Now()
	defer func() { s.p.resolve.add(s.p.clk.Since(start)) }()
	return s.fullStore.ResolvePathBatched(path, tc)
}

// txProbe times one transaction from Begin to its first Commit or Abort.
type txProbe struct {
	store.Tx
	p     *probes
	start time.Time
	done  bool
}

func (t *txProbe) finish() {
	if !t.done {
		t.done = true
		t.p.tx.add(t.p.clk.Since(t.start))
	}
}

func (t *txProbe) Commit() error {
	err := t.Tx.Commit()
	t.finish()
	return err
}

func (t *txProbe) Abort() {
	t.Tx.Abort()
	t.finish()
}

type coordProbe struct {
	coordinator.TracedBatchInvalidator
	p *probes
}

func (p *probes) wrapCoordinator(c coordinator.TracedBatchInvalidator) *coordProbe {
	return &coordProbe{TracedBatchInvalidator: c, p: p}
}

func (c *coordProbe) Invalidate(deps []int, inv coordinator.Invalidation) error {
	start := c.p.clk.Now()
	defer func() { c.p.inv.add(c.p.clk.Since(start)) }()
	return c.TracedBatchInvalidator.Invalidate(deps, inv)
}

func (c *coordProbe) InvalidateBatch(deps []int, invs []coordinator.Invalidation) error {
	start := c.p.clk.Now()
	defer func() { c.p.inv.add(c.p.clk.Since(start)) }()
	return c.TracedBatchInvalidator.InvalidateBatch(deps, invs)
}

func (c *coordProbe) InvalidateBatchTraced(deps []int, invs []coordinator.Invalidation, tc *trace.Ctx) error {
	start := c.p.clk.Now()
	defer func() { c.p.inv.add(c.p.clk.Since(start)) }()
	return c.TracedBatchInvalidator.InvalidateBatchTraced(deps, invs, tc)
}

type invokerProbe struct {
	inner    rpc.Invoker
	platform *faas.Platform
	p        *probes
}

func (p *probes) wrapInvoker(inner rpc.Invoker, platform *faas.Platform) *invokerProbe {
	return &invokerProbe{inner: inner, platform: platform, p: p}
}

// Invoke times the HTTP invocation and samples the fleet size after it:
// instances are only provisioned by invocations.
func (i *invokerProbe) Invoke(dep int, payload any) (any, error) {
	start := i.p.clk.Now()
	v, err := i.inner.Invoke(dep, payload)
	i.p.invoke.add(i.p.clk.Since(start))
	n := int64(i.platform.ActiveInstances())
	for {
		peak := i.p.instancesPeak.Load()
		if n <= peak || i.p.instancesPeak.CompareAndSwap(peak, n) {
			break
		}
	}
	return v, err
}
