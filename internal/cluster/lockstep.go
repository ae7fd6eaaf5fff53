package cluster

import (
	"fmt"
	"sync"
	"time"

	"locsample/internal/chains"
	"locsample/internal/partition"
	"locsample/internal/transport"
)

// Stats reports one sharded draw's runtime profile.
type Stats struct {
	// Shards is the worker count the draw ran with.
	Shards int `json:"shards"`
	// Rounds is the number of lockstep rounds executed.
	Rounds int `json:"rounds"`
	// BoundaryMessages counts boundary-state publishes — channel sends
	// below TreeBarrierMinShards, publish-buffer fills at or above it
	// (one per neighboring shard pair, per direction, per round either
	// way).
	BoundaryMessages int64 `json:"boundaryMessages"`
	// BoundaryValues counts vertex states exchanged across shard
	// boundaries over the whole draw.
	BoundaryValues int64 `json:"boundaryValues"`
	// BarrierWaitNS is the total time workers spent blocked at the
	// round barrier (receiving halo states), summed over workers.
	BarrierWaitNS int64 `json:"barrierWaitNs"`
	// WireFrames and WireBytes count boundary frames and bytes that
	// crossed a process boundary (cross-process draws only; each frame
	// is counted once, at its sender).
	WireFrames int64 `json:"wireFrames,omitempty"`
	WireBytes  int64 `json:"wireBytes,omitempty"`
}

// Add accumulates other into s (Shards and Rounds adopt other's values:
// they are per-draw constants, not sums).
func (s *Stats) Add(other Stats) {
	s.Shards = other.Shards
	s.Rounds = other.Rounds
	s.BoundaryMessages += other.BoundaryMessages
	s.BoundaryValues += other.BoundaryValues
	s.BarrierWaitNS += other.BarrierWaitNS
	s.WireFrames += other.WireFrames
	s.WireBytes += other.WireBytes
}

// lockstep is the family-independent half of a sharded engine: the hosted
// shards' run state, the boundary fabric, and the Run loop that alternates
// a round kernel with the boundary exchange. Engine (MRF) and CSPEngine
// (CSP) each embed one and plug in only their shard round kernel; S is the
// family's shard type (*partition.Shard or *partition.CSPShard).
type lockstep[S any] struct {
	k, n int // plan shard and vertex counts

	// ws[s] is non-nil exactly for the shards this engine hosts; local
	// lists them in ascending order. An all-local engine hosts every
	// shard; a transport engine hosts the subset a worker process was
	// assigned.
	ws    []*worker[S]
	local []int
	// tr carries the boundary exchange. All-local engines below
	// TreeBarrierMinShards use the in-process channel transport
	// (capacity-2 double-buffered links: a sender can never block,
	// because at most the previous and current round's frames are
	// outstanding — a worker cannot run two rounds ahead of a neighbor
	// it must hear from every round — so the lockstep schedule is
	// deadlock-free by construction). Transport engines plug in any
	// fabric: a TCP mesh for cross-process draws, a fault-injecting
	// wrapper in tests. Nil when the tree barrier is active.
	tr transport.Transport
	// bar replaces the pairwise transport rendezvous as the round barrier
	// at K >= TreeBarrierMinShards when every shard is local; halo states
	// are then read straight from the neighbors' publish buffers after
	// the barrier.
	bar *treeBarrier

	// obs, when non-nil, receives one RoundDone per shard per round with
	// that round's compute/barrier split and accepted-update count. Set
	// via SetObserver before Run; the nil check is the only cost when
	// unset. Implementations must be safe for concurrent calls from all
	// shard goroutines and must not allocate (obs.RoundRecorder and
	// obs.RoundMetrics both qualify).
	obs chains.RoundObserver

	// round is the family's round kernel: it advances one hosted shard by
	// one round and returns the number of owned vertices it updated.
	round func(w *worker[S], seed uint64, r int) int
}

// worker is one hosted shard's mutable run state. Buffers are allocated
// once at engine construction and reused across rounds and runs, so the
// steady-state loop allocates nothing.
type worker[S any] struct {
	sh S // the family's shard: its local adjacency or constraint slots
	// View is the shard's local→global map (owned band first) and its
	// boundary exchange maps, copied by value so the round loop reads
	// them without chasing sh.
	partition.View

	x    []int     // local vertex states (owned band + halo band)
	prop []int     // LocalMetropolis proposals, all local vertices
	beta []float64 // LubyGlauber Luby-step priorities, all local vertices
	pass []bool    // LocalMetropolis filter outcomes, per shard edge or constraint
	marg []float64 // conditional-marginal scratch, length q
	eval []int     // CSP closure-fallback scratch, 3·maxArity ints

	// sendBuf[j] holds two alternating outgoing buffers per neighbor j.
	// Round r sends buffer r&1; by the time round r+2 overwrites it, the
	// receiver has provably finished copying it (its round-r+1 message to
	// us happens-after its round-r receive).
	sendBuf [][2][]int

	msgs, vals, waitNS int64
}

// hostAll lists every shard of a k-shard plan with the all-local fabric:
// the channel transport below TreeBarrierMinShards, none (the tree
// barrier) from it up.
func hostAll(k int, neighbors func() [][]int) ([]int, transport.Transport) {
	local := make([]int, k)
	for s := range local {
		local[s] = s
	}
	if k >= TreeBarrierMinShards {
		return local, nil
	}
	return local, transport.NewChan(neighbors(), 0)
}

// checkHosted validates the arguments of a transport engine constructor
// (named ctor in errors): a fabric and a non-empty, duplicate-free list of
// in-range shards.
func checkHosted(ctor string, k int, local []int, tr transport.Transport) error {
	if tr == nil {
		return fmt.Errorf("cluster: %s needs a transport", ctor)
	}
	if len(local) == 0 {
		return fmt.Errorf("cluster: %s needs at least one local shard", ctor)
	}
	seen := make(map[int]bool, len(local))
	for _, s := range local {
		if s < 0 || s >= k {
			return fmt.Errorf("cluster: local shard %d out of range (plan has %d)", s, k)
		}
		if seen[s] {
			return fmt.Errorf("cluster: local shard %d listed twice", s)
		}
		seen[s] = true
	}
	return nil
}

// newLockstep builds the run state of the hosted shards over a k-shard
// plan of n vertices, sizing the round buffers for alg over q states. A
// nil tr selects the tree barrier. shard returns a hosted shard, its
// view, and its number of LocalMetropolis filter slots (edges or
// constraints).
func newLockstep[S any](k, n int, local []int, tr transport.Transport, alg chains.Algorithm, q int, shard func(s int) (S, partition.View, int)) lockstep[S] {
	l := lockstep[S]{k: k, n: n, ws: make([]*worker[S], k), local: local, tr: tr}
	if tr == nil {
		l.bar = newTreeBarrier(k)
	}
	for _, s := range local {
		sh, v, filters := shard(s)
		nl := len(v.Global)
		w := &worker[S]{
			sh:      sh,
			View:    v,
			x:       make([]int, nl),
			marg:    make([]float64, q),
			sendBuf: make([][2][]int, k),
		}
		switch alg {
		case chains.LubyGlauber:
			w.beta = make([]float64, nl)
		case chains.LocalMetropolis:
			w.prop = make([]int, nl)
			w.pass = make([]bool, filters)
		}
		for _, j := range v.Neighbors {
			w.sendBuf[j] = [2][]int{
				make([]int, len(v.SendTo[j])),
				make([]int, len(v.SendTo[j])),
			}
		}
		l.ws[s] = w
	}
	return l
}

// SetObserver installs (or, with nil, removes) the engine's per-round
// observer. Not safe to call while a Run is in flight.
func (l *lockstep[S]) SetObserver(o chains.RoundObserver) { l.obs = o }

// Run advances one chain for the given number of rounds from init (read
// only) under the master seed, writing its hosted shards' owned states
// into out (length n; an all-local engine fills all of it). The
// trajectory is bit-identical to the family's centralized chain at the
// same seed.
//
// A non-nil error means the draw did not complete: a shard worker hit a
// transport failure (or a sibling did, and the transport was closed to
// unblock everyone). The engine is poisoned afterwards — its transport
// is closed — so callers must discard it rather than Run again.
func (l *lockstep[S]) Run(init []int, seed uint64, rounds int, out []int) (Stats, error) {
	if len(init) != l.n || len(out) != l.n {
		panic("cluster: init/out length does not match the partitioned model")
	}
	for _, s := range l.local {
		w := l.ws[s]
		for i, gv := range w.Global {
			w.x[i] = init[gv]
		}
		w.msgs, w.vals, w.waitNS = 0, 0, 0
	}
	var wg sync.WaitGroup
	var once sync.Once
	var firstErr error
	for _, s := range l.local {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if err := l.runShard(s, seed, rounds, out); err != nil {
				once.Do(func() {
					firstErr = fmt.Errorf("cluster: shard %d: %w", s, err)
					// Poison the fabric so every sibling blocked in a
					// send or receive fails out instead of hanging.
					l.tr.Close()
				})
			}
		}(s)
	}
	wg.Wait()
	if firstErr != nil {
		return Stats{}, firstErr
	}
	st := Stats{Shards: l.k, Rounds: rounds}
	for _, s := range l.local {
		w := l.ws[s]
		st.BoundaryMessages += w.msgs
		st.BoundaryValues += w.vals
		st.BarrierWaitNS += w.waitNS
	}
	return st, nil
}

// Close releases the engine's transport (and with it any blocked shard
// workers). All-local tree-barrier engines have none; Close is then a
// no-op.
func (l *lockstep[S]) Close() error {
	if l.tr != nil {
		return l.tr.Close()
	}
	return nil
}

// runShard is one worker's lockstep loop: compute, publish boundary states,
// pass the round barrier, read halo states, repeat; then publish owned
// states into out. On the transport path the publish/barrier/read is the
// pairwise frame exchange; on the tree-barrier path the boundary buffers
// are filled in place, one tree-reduce barrier synchronizes the round, and
// halo values are copied straight out of the neighbors' publish buffers.
func (l *lockstep[S]) runShard(s int, seed uint64, rounds int, out []int) error {
	w := l.ws[s]
	obs := l.obs
	for r := 0; r < rounds; r++ {
		var roundStart time.Time
		var waitBefore int64
		if obs != nil {
			roundStart = time.Now()
			waitBefore = w.waitNS
		}
		flips := l.round(w, seed, r)
		for _, j := range w.Neighbors {
			buf := w.sendBuf[j][r&1]
			for t, i := range w.SendTo[j] {
				buf[t] = w.x[i]
			}
			if l.bar == nil {
				if err := l.tr.Send(s, j, r, buf); err != nil {
					return fmt.Errorf("round %d: send to shard %d: %w", r, j, err)
				}
			}
			w.msgs++
			w.vals += int64(len(buf))
		}
		if l.bar != nil {
			t0 := time.Now()
			l.bar.wait(s)
			w.waitNS += time.Since(t0).Nanoseconds()
			for _, j := range w.Neighbors {
				msg := l.ws[j].sendBuf[s][r&1]
				for t, i := range w.RecvFrom[j] {
					w.x[i] = msg[t]
				}
			}
		} else {
			for _, j := range w.Neighbors {
				t0 := time.Now()
				msg, err := l.tr.Recv(j, s, r, len(w.RecvFrom[j]))
				w.waitNS += time.Since(t0).Nanoseconds()
				if err != nil {
					return fmt.Errorf("round %d: recv from shard %d: %w", r, j, err)
				}
				for t, i := range w.RecvFrom[j] {
					w.x[i] = msg[t]
				}
			}
		}
		if obs != nil {
			// compute = round wall time minus barrier wait, so the two
			// spans tile the round exactly.
			barrierNS := w.waitNS - waitBefore
			obs.RoundDone(s, r, time.Since(roundStart).Nanoseconds()-barrierNS, barrierNS, flips)
		}
	}
	for i := 0; i < w.NOwned; i++ {
		out[w.Global[i]] = w.x[i]
	}
	return nil
}

// TreeBarrierMinShards is the shard count from which the engine swaps the
// pairwise channel exchange for the publish-buffer + tree-reduce barrier:
// below it the per-neighbor rendezvous count is tiny and the channel scheme
// wins on simplicity; at and above it the O(log k) barrier depth beats the
// O(deg) channel waits per worker.
const TreeBarrierMinShards = 8

// treeBarrier is a reusable k-party barrier over a binary arrival tree:
// worker i's children are 2i+1 and 2i+2. Arrivals reduce up the tree, the
// root releases down it, so one pass costs O(log k) rendezvous depth. Each
// channel sees exactly one send and one receive per round, strictly
// alternating (a child cannot arrive for round r+1 before its round-r
// release, which its parent sends only after consuming the round-r
// arrival), so the same barrier value is reusable every round and across
// Runs. The arrival chain up plus release chain down gives every worker's
// pre-barrier writes a happens-before edge to every other worker's
// post-barrier reads — the memory-safety backbone of the publish scheme.
type treeBarrier struct {
	arrive  []chan struct{}
	release []chan struct{}
}

func newTreeBarrier(k int) *treeBarrier {
	b := &treeBarrier{
		arrive:  make([]chan struct{}, k),
		release: make([]chan struct{}, k),
	}
	for i := 0; i < k; i++ {
		b.arrive[i] = make(chan struct{}, 1)
		b.release[i] = make(chan struct{}, 1)
	}
	return b
}

// wait blocks worker i until all k workers have arrived.
func (b *treeBarrier) wait(i int) {
	k := len(b.arrive)
	if c := 2*i + 1; c < k {
		<-b.arrive[c]
	}
	if c := 2*i + 2; c < k {
		<-b.arrive[c]
	}
	if i > 0 {
		b.arrive[i] <- struct{}{}
		<-b.release[i]
	}
	if c := 2*i + 1; c < k {
		b.release[c] <- struct{}{}
	}
	if c := 2*i + 2; c < k {
		b.release[c] <- struct{}{}
	}
}
