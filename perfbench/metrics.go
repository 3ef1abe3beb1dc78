package main

import "sort"

// endToEnd computes the metrics a user of the service sees, from an
// untraced run. ops_per_host_s is completed ops per host CPU second, the
// median over the run's units (host-time windows, or open-loop rounds), so
// a transient stall of the host does not move it.
func endToEnd(r *runResult) map[string]metric {
	ops := float64(r.completed)
	rates := make([]float64, 0, len(r.units))
	for _, u := range r.units {
		rates = append(rates, float64(u.ops)/u.cpuS)
	}
	return map[string]metric{
		"ops_per_vs":         {ops / r.virtS, "ops/vs"},
		"lat_p50_vus":        {quantileSorted(r.latUS, 0.50), "vus"},
		"lat_p99_vus":        {quantileSorted(r.latUS, 0.99), "vus"},
		"usd_per_mop":        {r.usd / ops * 1e6, "USD/Mop"},
		"ops_per_host_s":     {median(rates), "ops/s"},
		"allocs_per_op":      {float64(r.mallocs) / ops, "allocs/op"},
		"alloc_bytes_per_op": {float64(r.allocB) / ops, "B/op"},
		"peak_heap_mb":       {float64(r.peakHeapB) / (1 << 20), "MiB"},
		"setup_s":            {r.setupS, "s"},
	}
}

// median returns the median of v (0 when empty); it reorders v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// layerMoves names, for each per-layer metric, the end-to-end metric it
// should move and the workload where that shows.
var layerMoves = map[string][]string{
	"rpc.tcp_per_op":                {"lat_p50_vus@spotify_warm"},
	"rpc.http_per_op":               {"lat_p99_vus@burst_cold"},
	"rpc.retries_per_op":            {"lat_p99_vus@burst_cold"},
	"rpc.hedges_per_op":             {"lat_p99_vus@burst_cold"},
	"rpc.cpu_us_per_op":             {"ops_per_host_s@spotify_warm"},
	"faas.invoke_p50_vus":           {"lat_p99_vus@burst_cold"},
	"faas.invoke_p99_vus":           {"lat_p99_vus@burst_cold"},
	"faas.cold_starts":              {"lat_p99_vus@burst_cold"},
	"faas.instances_peak":           {"usd_per_mop@burst_cold"},
	"faas.gb_s_per_kop":             {"usd_per_mop@burst_cold"},
	"faas.cpu_us_per_op":            {"ops_per_host_s@burst_cold"},
	"cache.hit_ratio":               {"lat_p50_vus@spotify_warm", "ops_per_vs@spotify_warm"},
	"cache.cpu_us_per_op":           {"ops_per_host_s@spotify_warm"},
	"trie.cpu_us_per_op":            {"ops_per_host_s@spotify_warm"},
	"namespace.cpu_us_per_op":       {"ops_per_host_s@spotify_warm"},
	"metrics.cpu_us_per_op":         {"ops_per_host_s@burst_cold"},
	"core.cpu_us_per_op":            {"ops_per_host_s@spotify_warm"},
	"core.subtree_ops":              {"lat_p99_vus@write_fanout"},
	"ndb.resolve_p50_vus":           {"lat_p50_vus@spotify_warm"},
	"ndb.reads_per_op":              {"lat_p50_vus@spotify_warm"},
	"ndb.resolve_hops_per_op":       {"lat_p50_vus@spotify_warm"},
	"ndb.tx_per_op":                 {"lat_p50_vus@write_fanout"},
	"ndb.tx_p50_vus":                {"lat_p50_vus@write_fanout"},
	"ndb.wal_bytes_per_op":          {"lat_p50_vus@write_fanout"},
	"ndb.lock_wait_vus_per_op":      {"lat_p99_vus@write_fanout"},
	"ndb.aborts_per_op":             {"lat_p99_vus@write_fanout"},
	"ndb.lock_timeouts":             {"lat_p99_vus@write_fanout"},
	"ndb.cpu_us_per_op":             {"ops_per_host_s@write_fanout"},
	"lsm.checkpoints":               {"ops_per_host_s@write_fanout"},
	"lsm.cpu_us_per_op":             {"ops_per_host_s@write_fanout"},
	"coordinator.rounds_per_op":     {"lat_p50_vus@write_fanout"},
	"coordinator.inv_p50_vus":       {"lat_p50_vus@write_fanout"},
	"coordinator.inv_p99_vus":       {"lat_p99_vus@write_fanout"},
	"coordinator.targets_per_round": {"lat_p99_vus@write_fanout"},
	"coordinator.cpu_us_per_op":     {"ops_per_host_s@write_fanout"},
	"clock.advances_per_op":         {"ops_per_host_s@all"},
	"clock.cpu_us_per_op":           {"ops_per_host_s@all"},
	"telemetry.cpu_us_per_op":       {"ops_per_host_s@spotify_warm"},
	"gc.cpu_us_per_op":              {"ops_per_host_s@all", "alloc_bytes_per_op@all"},
	"gc.cycles_per_kop":             {"ops_per_host_s@all", "alloc_bytes_per_op@all"},
	"gen.lateness_p99_vus":          {"lat_p99_vus@burst_cold"},
	"gen.cpu_us_per_op":             {"ops_per_host_s@all"},
	"other.cpu_us_per_op":           {"ops_per_host_s@all"},
	"trace.overhead_pct":            {"ops_per_host_s@all"},
}

// cpuLayers are the layers whose host CPU the profile attributes; "gen"
// is the benchmark itself and "other" the Go scheduler and syscalls.
var cpuLayers = []string{"rpc", "faas", "cache", "trie", "core", "namespace", "ndb", "lsm",
	"coordinator", "clock", "telemetry", "metrics", "gc", "gen", "other"}

// perLayer computes the breakdown from a traced run; plain is an untraced
// run of the same length, for the tracing overhead.
func perLayer(r, plain *runResult) map[string]metric {
	ops := float64(r.completed)
	b, a := r.before, r.after
	per := func(d float64) float64 { return d / ops }
	hits, misses := a.cacheHits-b.cacheHits, a.cacheMiss-b.cacheMiss
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	rounds := a.invRounds - b.invRounds
	targets := 0.0
	if rounds > 0 {
		targets = (a.invTargets - b.invTargets) / rounds
	}
	p := r.probes
	m := map[string]metric{
		"rpc.tcp_per_op":                {per(float64(a.rpc.TCPRPCs - b.rpc.TCPRPCs)), "rpcs/op"},
		"rpc.http_per_op":               {per(float64(a.rpc.HTTPRPCs - b.rpc.HTTPRPCs)), "rpcs/op"},
		"rpc.retries_per_op":            {per(float64(a.rpc.Retries - b.rpc.Retries)), "retries/op"},
		"rpc.hedges_per_op":             {per(float64(a.rpc.Hedges - b.rpc.Hedges)), "hedges/op"},
		"faas.invoke_p50_vus":           {p.invoke.quantile(0.50), "vus"},
		"faas.invoke_p99_vus":           {p.invoke.quantile(0.99), "vus"},
		"faas.cold_starts":              {float64(a.faas.ColdStarts - b.faas.ColdStarts), "count"},
		"faas.instances_peak":           {float64(p.instancesPeak.Load()), "count"},
		"faas.gb_s_per_kop":             {(a.gbSeconds - b.gbSeconds) / ops * 1000, "GB-s/kop"},
		"cache.hit_ratio":               {hitRatio, "ratio"},
		"core.subtree_ops":              {a.subtree - b.subtree, "count"},
		"ndb.resolve_p50_vus":           {p.resolve.quantile(0.50), "vus"},
		"ndb.reads_per_op":              {per(float64(a.ndb.Reads - b.ndb.Reads)), "reads/op"},
		"ndb.resolve_hops_per_op":       {per(float64(a.ndb.ResolveHops - b.ndb.ResolveHops)), "hops/op"},
		"ndb.tx_per_op":                 {per(float64(p.tx.count())), "tx/op"},
		"ndb.tx_p50_vus":                {p.tx.quantile(0.50), "vus"},
		"ndb.wal_bytes_per_op":          {per(float64(a.ndb.WALBytes - b.ndb.WALBytes)), "B/op"},
		"ndb.lock_wait_vus_per_op":      {per(float64(a.ndb.LockWaitNS-b.ndb.LockWaitNS) / 1000), "vus/op"},
		"ndb.aborts_per_op":             {per(float64(a.ndb.Aborts - b.ndb.Aborts)), "aborts/op"},
		"ndb.lock_timeouts":             {float64(a.ndb.LockTimeouts - b.ndb.LockTimeouts), "count"},
		"lsm.checkpoints":               {float64(a.ndb.Checkpoints - b.ndb.Checkpoints), "count"},
		"coordinator.rounds_per_op":     {per(rounds), "rounds/op"},
		"coordinator.inv_p50_vus":       {p.inv.quantile(0.50), "vus"},
		"coordinator.inv_p99_vus":       {p.inv.quantile(0.99), "vus"},
		"coordinator.targets_per_round": {targets, "targets"},
		"clock.advances_per_op":         {per(float64(a.advances - b.advances)), "advances/op"},
		"gc.cycles_per_kop":             {float64(r.gcCycles) / ops * 1000, "cycles/kop"},
		"gen.lateness_p99_vus":          {quantileSorted(r.lateUS, 0.99), "vus"},
		"trace.overhead_pct":            {(r.cpuS/ops/(plain.cpuS/float64(plain.completed)) - 1) * 100, "%"},
	}
	for _, l := range cpuLayers {
		m[l+".cpu_us_per_op"] = metric{float64(r.cpuNS[l]) / 1000 / ops, "us/op"}
	}
	return m
}
