package main

import (
	"math"
	"time"
)

// stream is a splitmix64 generator. Every input the benchmark sends —
// arrival times, request classes, draw seeds, which outputs get a
// reference check — comes from streams keyed by the workload seed, so a
// run with the same seed replays the same traffic.
type stream struct{ s uint64 }

func newStream(seed uint64, tag string) *stream {
	s := &stream{s: seed}
	for _, c := range []byte(tag) {
		s.s = mix64(s.s ^ uint64(c))
	}
	return s
}

func (r *stream) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// float returns a uniform value in [0, 1).
func (r *stream) float() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// pick reports true with probability 1/every.
func (r *stream) pick(every int) bool {
	return r.next()%uint64(every) == 0
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// arrival is one open-loop request: when it is due after the phase
// starts, which request class it draws from, and its draw seed.
type arrival struct {
	due   time.Duration
	class int
	seed  uint64
}

// schedule lays out an open loop: one Poisson stream at rate over
// span, dealt to the classes in turn, so every class gets an equal
// share.
func schedule(seed uint64, rate float64, classes int, span time.Duration) []arrival {
	var out []arrival
	r := newStream(seed, "arrivals")
	t := 0.0
	for i := 0; ; i++ {
		t += -math.Log(1-r.float()) / rate
		due := time.Duration(t * float64(time.Second))
		if due >= span {
			return out
		}
		out = append(out, arrival{due: due, class: i % classes, seed: r.next()})
	}
}
