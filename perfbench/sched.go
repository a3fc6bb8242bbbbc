package main

import (
	"math/rand"
	"time"
)

// arrivalOffsets returns n open-loop arrival offsets at a fixed mean rate
// (per second): each gap is the mean gap scaled by a seeded factor drawn
// uniformly from [0.5, 1.5), so the offered load is fixed while arrivals do
// not line up on a grid. The first arrival is due at offset 0.
func arrivalOffsets(rng *rand.Rand, n int, rate float64) []time.Duration {
	gap := float64(time.Second) / rate
	out := make([]time.Duration, n)
	var at float64
	for i := range out {
		out[i] = time.Duration(at)
		at += gap * (0.5 + rng.Float64())
	}
	return out
}

// pace fires fire(i, due) for every offset in order, each no earlier than
// start+offsets[i], without waiting for earlier fires to finish (an open
// loop: a slow system gets the same offered load and its queue grows). It
// returns how late each fire ran against its due time.
func pace(start time.Time, offsets []time.Duration, fire func(i int, due time.Time)) []time.Duration {
	late := make([]time.Duration, len(offsets))
	for i, off := range offsets {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d) //lint:allow clockcheck (the benchmark paces and polls in real time)
		}
		late[i] = max(time.Since(due), 0)
		fire(i, due)
	}
	return late
}
