package main

import (
	"time"

	"lambdafs/internal/clock"
	"lambdafs/internal/coordinator"
	"lambdafs/internal/core"
	"lambdafs/internal/faas"
	"lambdafs/internal/lsm"
	"lambdafs/internal/metrics"
	"lambdafs/internal/ndb"
	"lambdafs/internal/partition"
	"lambdafs/internal/rpc"
	"lambdafs/internal/store"
	"lambdafs/internal/telemetry"
)

// clusterShape is what differs between the workloads' deployments.
type clusterShape struct {
	deployments int
	// maxPerDep caps each deployment's instances and pre-warms it to the
	// cap at registration; 0 starts cold with uncapped autoscaling.
	maxPerDep int
	durable   bool
	vms       int
}

// cluster is a λFS deployment assembled from the same constructors
// lambdafs.NewCluster uses (ndb.New, coordinator.NewZK, faas.New,
// core.NewSystem, rpc.NewVM). The benchmark builds it itself because the
// public Config cannot attach an ndb.Durable bound to the cluster's own
// simulation clock, and because the traced run must hand core.NewSystem
// and rpc its wrappers.
type cluster struct {
	sim      *clock.Sim
	reg      *telemetry.Registry
	storeCfg ndb.Config
	db       *ndb.DB
	zk       *coordinator.ZK
	platform *faas.Platform
	sys      *core.System
	meter    *metrics.LambdaMeter
	ring     *partition.Ring
	vms      []*rpc.VM
	inv      rpc.Invoker
	probes   *probes // nil on untraced runs
}

// newCluster assembles the deployment; with p non-nil the store,
// coordinator and invoker handed to the system and clients are p's
// wrappers. It must run inside a clock-registered task.
func newCluster(sim *clock.Sim, shape clusterShape, seed int64, p *probes) *cluster {
	c := &cluster{sim: sim, reg: telemetry.NewRegistry(), probes: p}

	c.storeCfg = ndb.DefaultConfig()
	c.storeCfg.Metrics = c.reg
	if shape.durable {
		c.storeCfg.Durable = ndb.NewDurable(sim, c.storeCfg.DataNodes, lsm.DefaultConfig())
		c.storeCfg.Durability = ndb.DefaultDurabilityConfig()
	}
	c.db = ndb.New(sim, c.storeCfg)

	coordCfg := coordinator.DefaultConfig()
	coordCfg.HopLatency = 500 * time.Microsecond
	coordCfg.Metrics = c.reg
	coordCfg.OnCrash = func(id string) { core.CleanupCrashedNameNode(c.db, id) }
	c.zk = coordinator.NewZK(sim, coordCfg)

	c.meter = metrics.NewLambdaMeter(clock.Epoch)
	pcfg := faas.DefaultConfig()
	pcfg.Lambda = c.meter
	pcfg.Provisioned = metrics.NewProvisionedMeter(clock.Epoch)
	pcfg.Metrics = c.reg
	c.platform = faas.New(sim, pcfg)

	ecfg := core.DefaultEngineConfig()
	ecfg.Metrics = c.reg
	sysCfg := core.SystemConfig{
		Deployments:               shape.deployments,
		NameNodeVCPU:              6.25,
		NameNodeRAMGB:             30,
		ConcurrencyLevel:          4,
		MaxInstancesPerDeployment: shape.maxPerDep,
		MinInstancesPerDeployment: shape.maxPerDep,
		Engine:                    ecfg,
		OffloadLatency:            time.Millisecond,
	}
	var st store.Store = c.db
	var coord coordinator.Coordinator = c.zk
	if p != nil {
		st = p.wrapStore(c.db)
		coord = p.wrapCoordinator(c.zk)
	}
	c.sys = core.NewSystem(sim, st, coord, c.platform, sysCfg)
	c.ring = c.sys.Ring()
	c.inv = c.sys
	if p != nil {
		c.inv = p.wrapInvoker(c.sys, c.platform)
	}

	rcfg := rpc.DefaultConfig()
	rcfg.Seed = seed
	rcfg.Metrics = c.reg
	for i := 0; i < shape.vms; i++ {
		c.vms = append(c.vms, rpc.NewVM(sim, rcfg))
	}
	return c
}

// client creates client i on VM i mod vms.
func (c *cluster) client(i int, id string) *rpc.Client {
	return c.vms[i%len(c.vms)].NewClient(id, c.ring, c.inv)
}

// close terminates every instance; it must run inside the task.
func (c *cluster) close() { c.platform.Close() }
