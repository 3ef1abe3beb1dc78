package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/faas"
	"lambdafs/internal/metrics"
	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/rpc"
	"lambdafs/internal/telemetry"
)

// hostWindowS is the host-time window a closed-loop run is cut into;
// ops_per_host_s is the median of the windows' rates per CPU second.
const hostWindowS = 1.0

// setupReps is how many times a run builds, preloads and warms a cluster;
// setup_s is the median, and the last cluster is the one measured.
const setupReps = 3

// sabotage alters the program's output on purpose; only the self-test
// sets it, to show that each correctness check catches a change.
type sabotage struct {
	response  func(op namespace.OpType, resp *namespace.Response) bool
	store     func(db *ndb.DB) // the live store, before the final checks
	recovered func(db *ndb.DB) // the store ndb.Recover rebuilt
	done      atomic.Bool
}

// alter applies the response sabotage to the first response it accepts.
func (s *sabotage) alter(op namespace.OpType, resp *namespace.Response) {
	if s.response == nil || s.done.Load() {
		return
	}
	if s.response(op, resp) {
		s.done.Store(true)
	}
}

// runResult is one measured phase on one cluster.
type runResult struct {
	attempted, failed int
	completed         int
	problems          []string
	nProblems         int

	setupS    float64
	hostS     float64
	cpuS      float64
	virtS     float64
	latUS     []int64 // sorted
	lateUS    []int64 // sorted
	units     []unit
	usd       float64
	mallocs   uint64
	allocB    uint64
	gcCycles  uint32
	peakHeapB uint64

	before, after counters
	cpuNS         map[string]int64 // traced runs only
	probes        *probes
}

// counters is a snapshot of the program's own counters, read inside the
// run's clock-registered task.
type counters struct {
	ndb        ndb.Stats
	faas       faas.Stats
	rpc        rpc.ClientStats
	cacheHits  float64
	cacheMiss  float64
	invRounds  float64
	invTargets float64
	subtree    float64
	advances   uint64
	usd        float64
	gbSeconds  float64
}

func (c *cluster) snapshot(clients []*simClient) counters {
	var rs rpc.ClientStats
	for _, sc := range clients {
		s := sc.rc.Stats()
		rs.TCPRPCs += s.TCPRPCs
		rs.HTTPRPCs += s.HTTPRPCs
		rs.Retries += s.Retries
		rs.Hedges += s.Hedges
	}
	// The registry is read through Gather, which reads instruments
	// without registering any.
	reg := make(map[string]float64)
	for _, m := range c.reg.Gather() {
		if m.Kind == telemetry.KindCounter {
			reg[m.Name] += m.Value
		}
	}
	usd := c.meter.TotalUSD()
	return counters{
		ndb:        c.db.Stats(),
		faas:       c.platform.Stats(),
		rpc:        rs,
		cacheHits:  reg["lambdafs_core_cache_hits_total"],
		cacheMiss:  reg["lambdafs_core_cache_misses_total"],
		invRounds:  reg["lambdafs_coordinator_invalidations_total"],
		invTargets: reg["lambdafs_coordinator_watch_deliveries_total"],
		subtree:    reg["lambdafs_core_subtree_partitions_total"],
		advances:   c.sim.Advances(),
		usd:        usd,
		gbSeconds:  (usd - float64(c.meter.Requests())*metrics.LambdaPerRequestUSD) / metrics.LambdaGBSecondUSD,
	}
}

// runOnce sets the workload up setupReps times and measures the last
// cluster for seconds of host time. With traced set, the cluster gets the
// probes and the measured phase is CPU-profiled.
func runOnce(w *workloadSpec, seed int64, seconds float64, traced bool, sab *sabotage) (*runResult, error) {
	var setups []float64
	for i := 0; i < setupReps-1; i++ {
		sim := clock.NewSim()
		var err error
		clock.Run(sim, func() {
			start := cpuSeconds()
			var c *cluster
			c, _, _, err = setUp(sim, w, seed, nil)
			setups = append(setups, cpuSeconds()-start)
			if c != nil {
				c.close()
			}
		})
		sim.Close()
		if err != nil {
			return nil, err
		}
	}

	sim := clock.NewSim()
	defer sim.Close()
	var res *runResult
	var err error
	clock.Run(sim, func() {
		var p *probes
		if traced {
			p = &probes{clk: sim}
		}
		start := cpuSeconds()
		c, m, clients, serr := setUp(sim, w, seed, p)
		setups = append(setups, cpuSeconds()-start)
		if serr != nil {
			err = serr
			if c != nil {
				c.close()
			}
			return
		}
		for _, sc := range clients {
			sc.sab = sab
		}
		res, err = measure(c, m, w, clients, seed, seconds, p, sab)
	})
	if err != nil {
		return nil, err
	}
	sort.Float64s(setups)
	res.setupS = setups[len(setups)/2]
	return res, nil
}

// setUp builds the cluster, preloads the shared namespace and warms the
// fleet. It runs inside the clock-registered task.
func setUp(sim *clock.Sim, w *workloadSpec, seed int64, p *probes) (*cluster, *model, []*simClient, error) {
	c := newCluster(sim, w.shape, seed, p)
	m := preload(c.db, c.ring, w.dirs, w.files)
	clients := make([]*simClient, w.clients)
	for i := range clients {
		clients[i] = &simClient{
			rc:  c.client(i, fmt.Sprintf("bench-%03d", i)),
			cm:  m.newClient(i),
			rng: rand.New(rand.NewSource(seed*1_000_003 + int64(i))),
			w:   w,
		}
	}
	if w.warmOps < 0 {
		return c, m, clients, nil
	}
	if err := warmUp(c, m, w, clients); err != nil {
		return c, m, clients, err
	}
	return c, m, clients, nil
}

// warmUp fills the caches and the clients' TCP connections on the
// pre-warmed fleet: every client first stats one file per deployment,
// starting at deployment i mod n, then the clients read every shared file
// and list every shared directory twice, and run warmOps ops of the mix.
// Warm-up ops are checked like measured ones.
func warmUp(c *cluster, m *model, w *workloadSpec, clients []*simClient) error {
	byDep := make(map[int]string)
	for _, f := range m.sharedFiles {
		d := c.ring.DeploymentForPath(f)
		if _, ok := byDep[d]; !ok {
			byDep[d] = f
		}
	}
	runClients(c.sim, clients, func(i int, sc *simClient) {
		for k := 0; k < w.shape.deployments; k++ {
			f := byDep[(i+k)%w.shape.deployments]
			sc.run(plannedOp{kind: namespace.OpStat, path: f, want: m.pre[f]})
		}
		for pass := 0; pass < 2; pass++ {
			for j := i; j < len(m.sharedFiles); j += len(clients) {
				f := m.sharedFiles[j]
				sc.run(plannedOp{kind: namespace.OpRead, path: f, want: m.pre[f]})
			}
			for j := i; j < len(m.sharedDirs); j += len(clients) {
				sc.run(plannedOp{kind: namespace.OpLs, path: m.sharedDirs[j]})
			}
		}
		for k := 0; k < w.warmOps; k++ {
			sc.run(w.plan(sc))
		}
	})
	want := w.shape.deployments * w.shape.maxPerDep
	if got := c.platform.ActiveInstances(); got != want {
		return fmt.Errorf("%s: warm-up left %d instances, want the cap %d", w.name, got, want)
	}
	return nil
}

// runClients runs fn for every client as a clock-registered goroutine and
// waits for all of them.
func runClients(sim *clock.Sim, clients []*simClient, fn func(i int, sc *simClient)) {
	var wg sync.WaitGroup
	for i, sc := range clients {
		i, sc := i, sc
		wg.Add(1)
		clock.Go(sim, func() {
			defer wg.Done()
			fn(i, sc)
		})
	}
	clock.Idle(sim, wg.Wait)
}

// measure runs the measured phase for seconds of host time, then the
// end-of-run checks, and closes the cluster.
func measure(c *cluster, m *model, w *workloadSpec, clients []*simClient, seed int64,
	seconds float64, p *probes, sab *sabotage) (*runResult, error) {
	res := &runResult{probes: p}
	for _, sc := range clients {
		sc.attempted, sc.failed = 0, 0
	}
	if p != nil {
		p.reset()
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	res.before = c.snapshot(clients)

	var profile bytes.Buffer
	if p != nil {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var stop atomic.Bool
	var done atomic.Int64
	stopTimer := afterHost(seconds, func() { stop.Store(true) })
	window := hostWindowS
	if w.burst != nil {
		window = 0 // the open loop cuts a unit per round
	}
	sampler := startHostSampler(&done, window)
	v0 := c.sim.Now()
	h0 := hostNow()

	var active time.Duration
	if w.burst != nil {
		active = runOpenLoop(c.sim, w, clients, seed, &stop, &done, sampler.cut)
	} else {
		runClients(c.sim, clients, func(_ int, sc *simClient) {
			for !stop.Load() {
				for k := 0; k < w.round; k++ {
					op := sc.plan()
					t0 := c.sim.Now()
					if sc.run(op) {
						sc.latUS = append(sc.latUS, c.sim.Since(t0).Microseconds())
						done.Add(1)
					}
				}
			}
		})
	}

	res.hostS = hostSince(h0)
	res.virtS = c.sim.Since(v0).Seconds()
	if w.burst != nil {
		res.virtS = active.Seconds()
	}
	res.units, res.peakHeapB = sampler.stop()
	for _, u := range res.units {
		res.cpuS += u.cpuS
	}
	if w.burst == nil && len(res.units) > 1 && res.units[len(res.units)-1].wallS < window/2 {
		res.units = res.units[:len(res.units)-1] // too short a tail window to rate
	}
	stopTimer()
	if p != nil {
		pprof.StopCPUProfile()
		cpu, err := cpuByLayer(profile.Bytes())
		if err != nil {
			return nil, err
		}
		res.cpuNS = cpu
	}
	runtime.ReadMemStats(&ms1)
	res.after = c.snapshot(clients)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcCycles = ms1.NumGC - ms0.NumGC
	res.usd = res.after.usd - res.before.usd

	for _, sc := range clients {
		res.attempted += sc.attempted
		res.failed += sc.failed
		res.latUS = append(res.latUS, sc.latUS...)
		res.lateUS = append(res.lateUS, sc.lateUS...)
	}
	res.completed = res.attempted - res.failed
	sort.Slice(res.latUS, func(i, j int) bool { return res.latUS[i] < res.latUS[j] })
	sort.Slice(res.lateUS, func(i, j int) bool { return res.lateUS[i] < res.lateUS[j] })

	res.problems, res.nProblems = finalChecks(c, m, clients, sab)
	return res, nil
}

// finalChecks gathers the per-op problems and checks the store against
// the model: the namespace walked from the root, integrity with no held
// locks, and on a durable store the namespace ndb.Recover rebuilds. It
// closes the cluster.
func finalChecks(c *cluster, m *model, clients []*simClient, sab *sabotage) ([]string, int) {
	var problems []string
	n := 0
	note := func(lines ...string) {
		n += len(lines)
		for _, l := range lines {
			if len(problems) < 20 {
				problems = append(problems, l)
			}
		}
	}
	for _, sc := range clients {
		n += sc.nProblems - len(sc.problems)
		note(sc.problems...)
	}
	if sab != nil && sab.store != nil {
		sab.store(c.db)
	}
	want := m.expected()
	note(checkNamespace(c.db, want)...)
	for _, p := range c.db.CheckIntegrity() {
		note("integrity: " + p)
	}
	if held := c.db.HeldLocks(); held != 0 {
		note(fmt.Sprintf("%d row locks still held", held))
	}
	c.close()
	if c.storeCfg.Durable != nil {
		rec, _, err := ndb.Recover(c.sim, c.storeCfg)
		if err != nil {
			note("recover: " + err.Error())
		} else {
			if sab != nil && sab.recovered != nil {
				sab.recovered(rec)
			}
			for _, p := range checkNamespace(rec, want) {
				note("after recovery: " + p)
			}
		}
	}
	return problems, n
}

// runOpenLoop issues burst_cold's arrivals: client i owns 1/n of each
// interval's aggregate rate as a Poisson process and dispatches each
// arrival at its due virtual time, or as soon as its previous op returns
// when it runs late. Latency is timed from the due time. Once stop is
// set, every client finishes the rounds any client has started, so all
// clients run the same whole rounds; newRound is called as the first
// client starts each round after the first. It returns the virtual time
// the rounds were active: from each round's start to its last
// completion.
func runOpenLoop(sim *clock.Sim, w *workloadSpec, clients []*simClient, seed int64,
	stop *atomic.Bool, done *atomic.Int64, newRound func()) time.Duration {
	const maxRounds = 1000
	b := w.burst
	rounds := b.rounds(seed, maxRounds)
	start := sim.Now()
	n := float64(len(clients))
	roundLen := b.roundLen()
	var mu sync.Mutex
	started, last := 0, maxRounds
	ends := make([]time.Duration, maxRounds) // last completion of each round, from its origin
	enter := func(r int) bool {
		mu.Lock()
		defer mu.Unlock()
		if last == maxRounds && stop.Load() {
			last = started
		}
		if r >= last {
			return false
		}
		if r+1 > started {
			started = r + 1
			if r > 0 {
				newRound()
			}
		}
		return true
	}
	runClients(sim, clients, func(i int, sc *simClient) {
		arr := rand.New(rand.NewSource(seed*7_919 + int64(i)))
		for r := 0; enter(r); r++ {
			origin := start.Add(time.Duration(r) * (roundLen + b.gap))
			for _, ph := range rounds[r] {
				gap := func() time.Duration {
					return time.Duration(arr.ExpFloat64() / (ph.rate / n) * float64(time.Second))
				}
				for due := ph.from + gap(); due < ph.to; due += gap() {
					dueAt := origin.Add(due)
					if wait := dueAt.Sub(sim.Now()); wait > 0 {
						sim.Sleep(wait)
					}
					sc.lateUS = append(sc.lateUS, sim.Since(dueAt).Microseconds())
					if sc.run(sc.plan()) {
						sc.latUS = append(sc.latUS, sim.Since(dueAt).Microseconds())
						done.Add(1)
					}
				}
			}
			mu.Lock()
			if end := sim.Since(origin); end > ends[r] {
				ends[r] = end
			}
			mu.Unlock()
		}
	})
	var active time.Duration
	for _, e := range ends[:last] {
		active += e
	}
	return active
}

func (sc *simClient) plan() plannedOp { return sc.w.plan(sc) }
