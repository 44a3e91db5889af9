package main

import (
	"math/rand"

	"voltsmooth/internal/api"
)

// repeatShare is the probability that a client's next spec repeats one it
// already completed (a cache hit) rather than a new one (a cache miss).
const repeatShare = 0.5

// specGen is one closed-loop client's seeded spec sequence. Each spec
// runs the cheap fig2 experiment; new specs are made distinct by
// fault_seed, which changes the cache fingerprint but not fig2's render,
// so every job checks against the same oracle digest. The sequence is a
// pure function of (seed, client): the server receives only its output.
type specGen struct {
	rng    *rand.Rand
	salt   uint64
	client int
	fresh  int
	done   []api.JobSpec
}

func newSpecGen(seed int64, client int) *specGen {
	return &specGen{
		rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
		salt:   uint64(seed) * 0x9E3779B97F4A7C15,
		client: client,
	}
}

// next returns the client's next spec and whether it repeats an earlier
// one. A closed-loop client waits for each job before asking again, so
// every earlier spec has completed by the time it is repeated.
func (g *specGen) next() (spec api.JobSpec, repeat bool) {
	if len(g.done) > 0 && g.rng.Float64() < repeatShare {
		return g.done[g.rng.Intn(len(g.done))], true
	}
	g.fresh++
	spec = api.JobSpec{
		Experiments: []string{"fig2"},
		Scale:       "tiny",
		// (client, fresh) is unique in a run, and XOR with the salt keeps
		// it unique while moving every value with the seed.
		FaultSeed: g.salt ^ (uint64(g.client)<<40 | uint64(g.fresh)),
	}
	g.done = append(g.done, spec)
	return spec, false
}

// readGen is one read-only client's seeded sequence of stored job IDs,
// drawn uniformly from the first n, as a pure function of (seed, client).
type readGen struct {
	rng *rand.Rand
	n   int
}

func newReadGen(seed int64, client, n int) *readGen {
	return &readGen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client))), n: n}
}

func (g *readGen) next() string { return api.JobID(1 + g.rng.Intn(g.n)) }
