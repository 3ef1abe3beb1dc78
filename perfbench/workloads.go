package main

import (
	"math"
	"math/rand"
	"time"
)

// workloadSpec is one traffic mix and the deployment it runs on.
type workloadSpec struct {
	name        string
	shape       clusterShape
	dirs, files int // preloaded shared namespace: dirs × files
	clients     int
	plan        func(*simClient) plannedOp
	// warmOps is the number of mix ops each client runs after the
	// cold fan-out and cache warm-up; negative means the run starts cold
	// (no warm-up at all).
	warmOps int
	// round is the number of ops each closed-loop client issues between
	// checks of the stop flag.
	round int
	burst *burstShape // non-nil: open loop
}

// burstShape is the open-loop arrival process of burst_cold. A round
// opens at the base rate for opening, long enough for the empty fleet to
// cold-start; each following interval draws its aggregate rate from
// Pareto(α=2) with scale base, capped at 7× base (the paper's §5.2.1
// generator), and the round ends in one interval spiking at the cap. The
// Pareto draws of a round are stratified (one per equal-probability band,
// in seeded order), so every round offers the same load shape while the
// seed still moves each draw. Rounds are separated by gap of idle
// virtual time, longer than the platform's idle reclaim, so every round
// starts from an empty fleet.
type burstShape struct {
	base     float64 // ops per virtual second
	opening  time.Duration
	interval time.Duration
	draws    int // Pareto-drawn intervals per round
	gap      time.Duration
}

// phase is one stretch of a round at a constant aggregate rate.
type phase struct {
	from, to time.Duration // from the round's origin
	rate     float64       // ops per virtual second
}

// rounds returns the phases of each round.
func (b *burstShape) rounds(seed int64, n int) [][]phase {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([][]phase, n)
	for r := range out {
		ph := append(make([]phase, 0, b.draws+2), phase{0, b.opening, b.base})
		next := func(rate float64) {
			from := ph[len(ph)-1].to
			ph = append(ph, phase{from, from + b.interval, rate})
		}
		for _, k := range rng.Perm(b.draws) {
			u := (float64(k) + rng.Float64()) / float64(b.draws) // stratified uniform
			if u <= 0 {
				u = math.SmallestNonzeroFloat64
			}
			next(b.base * math.Min(math.Pow(u, -1/2.0), 7))
		}
		next(7 * b.base)
		out[r] = ph
	}
	return out
}

// roundLen is the active length of one round.
func (b *burstShape) roundLen() time.Duration {
	return b.opening + time.Duration(b.draws+1)*b.interval
}

var workloads = []*workloadSpec{
	{
		name:  "spotify_warm",
		shape: clusterShape{deployments: 8, maxPerDep: 2, vms: 3},
		dirs:  32, files: 64,
		clients: 24,
		plan:    (*simClient).planSpotify,
		warmOps: 32,
		round:   16,
	},
	{
		name:  "write_fanout",
		shape: clusterShape{deployments: 8, maxPerDep: 2, vms: 3, durable: true},
		dirs:  64, files: 16,
		clients: 16,
		plan:    (*simClient).planWrite,
		warmOps: 32,
		round:   8,
	},
	{
		name:  "burst_cold",
		shape: clusterShape{deployments: 8, vms: 4},
		dirs:  64, files: 128,
		clients: 32,
		plan:    (*simClient).planSpotify,
		warmOps: -1,
		burst: &burstShape{base: 1000, opening: time.Second, interval: 500 * time.Millisecond,
			draws: 3, gap: 45 * time.Second},
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
