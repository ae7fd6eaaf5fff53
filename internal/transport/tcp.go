package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPConfig describes one process's view of a cross-process mesh.
type TCPConfig struct {
	// JobID disambiguates concurrent meshes sharing the same worker
	// addresses; peer hellos carry it so inbound connections attach to
	// the right mesh.
	JobID uint64
	// Self is this process's index in Addrs.
	Self int
	// Addrs lists the mesh address of every process, indexed by process.
	Addrs []string
	// Assign maps each shard to the process hosting it.
	Assign []int
	// Neighbors is the plan's neighbor lists (Neighbors[s] holds the
	// shards s exchanges boundaries with). Only links that cross a
	// process boundary become TCP links; same-process pairs are the
	// Router's business.
	Neighbors [][]int
	// DialTimeout bounds the total dial budget per peer, retries and
	// backoff included (default 10s).
	DialTimeout time.Duration
	// RecvTimeout bounds each Recv (default 60s; the deadline that turns
	// a dropped frame or dead peer into ErrTimeout).
	RecvTimeout time.Duration
	// WriteTimeout bounds each frame write (default 30s).
	WriteTimeout time.Duration
}

func (c *TCPConfig) withDefaults() TCPConfig {
	out := *c
	if out.DialTimeout <= 0 {
		out.DialTimeout = 10 * time.Second
	}
	if out.RecvTimeout <= 0 {
		out.RecvTimeout = 60 * time.Second
	}
	if out.WriteTimeout <= 0 {
		out.WriteTimeout = 30 * time.Second
	}
	return out
}

// Counters reports a TCP transport's wire traffic. Only sent frames are
// counted per process, so summing over all processes counts each frame
// once.
type Counters struct {
	FramesSent int64
	BytesSent  int64
	FramesRecv int64
	BytesRecv  int64
}

// outLink is a directed cross-process link this process sends on. Each
// link is driven by exactly one shard goroutine, so seq needs no
// atomics; the two encode buffers cycle through freeQ so a buffer is
// never reused before the writer goroutine has flushed it.
type outLink struct {
	from, to int
	conn     *tcpConn
	seq      uint64
	freeQ    chan []byte
}

// inLink is a directed cross-process link this process receives on. The
// reader goroutine checks seq continuity, decodes into a recycled
// buffer from freeQ, and delivers on ch; Recv returns the previous
// buffer to freeQ before taking the next. Lockstep lets the sender run
// two frames past the one Recv last returned (round r+2 needs only our
// round-r+1 frame), so three buffers — that one plus two in ch — mean
// the reader never waits on this link while frames for the connection's
// other links queue behind it.
type inLink struct {
	from, to int
	conn     *tcpConn
	nextSeq  uint64
	freeQ    chan []int
	ch       chan chanMsg
	cur      []int
}

type outFrame struct {
	link *outLink
	buf  []byte
}

// tcpConn is one established peer connection: a writer goroutine
// draining outQ and a reader goroutine demultiplexing inbound frames to
// their inLinks. Any wire error poisons the connection — every link on
// it fails loudly — because a mesh with a broken link cannot finish a
// lockstep round anyway.
type tcpConn struct {
	t    *TCP
	peer int
	outQ chan outFrame

	mu     sync.Mutex
	c      net.Conn
	closed bool
	err    error
	done   chan struct{}
}

// TCP is the cross-process transport: a full mesh of length-prefixed
// binary frame streams with per-link sequence checking. Construct it
// with NewTCP, establish the mesh with Dial (outbound halves) and
// AddConn (inbound halves, fed by the worker's accept loop), then wait
// for Ready before running rounds.
type TCP struct {
	cfg   TCPConfig
	out   map[uint64]*outLink
	in    map[uint64]*inLink
	conns map[int]*tcpConn

	pending int32
	readyC  chan struct{}
	done    chan struct{}
	once    sync.Once

	framesSent atomic.Int64
	bytesSent  atomic.Int64
	framesRecv atomic.Int64
	bytesRecv  atomic.Int64
}

func linkKey(from, to int) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(to)) }

// NewTCP builds the mesh endpoints for cfg without touching the
// network. Every plan link with endpoints on different processes
// becomes a pair of directed TCP links; the peer set is derived from
// them.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	cfg = cfg.withDefaults()
	if cfg.Self < 0 || cfg.Self >= len(cfg.Addrs) {
		return nil, fmt.Errorf("transport: self process %d out of range (have %d addresses)", cfg.Self, len(cfg.Addrs))
	}
	if len(cfg.Assign) != len(cfg.Neighbors) {
		return nil, fmt.Errorf("transport: %d shard assignments for %d neighbor lists", len(cfg.Assign), len(cfg.Neighbors))
	}
	t := &TCP{
		cfg:    cfg,
		out:    make(map[uint64]*outLink),
		in:     make(map[uint64]*inLink),
		conns:  make(map[int]*tcpConn),
		readyC: make(chan struct{}),
		done:   make(chan struct{}),
	}
	for s, ns := range cfg.Neighbors {
		if cfg.Assign[s] != cfg.Self {
			continue
		}
		for _, j := range ns {
			p := cfg.Assign[j]
			if p == cfg.Self {
				continue // same process: the Router sends these over Chan
			}
			if p < 0 || p >= len(cfg.Addrs) {
				return nil, fmt.Errorf("transport: shard %d assigned to process %d, out of range", j, p)
			}
			conn := t.conns[p]
			if conn == nil {
				conn = &tcpConn{t: t, peer: p, outQ: make(chan outFrame, 16), done: make(chan struct{})}
				t.conns[p] = conn
			}
			if t.out[linkKey(s, j)] == nil {
				l := &outLink{from: s, to: j, conn: conn, freeQ: make(chan []byte, 2)}
				l.freeQ <- nil
				l.freeQ <- nil
				t.out[linkKey(s, j)] = l
			}
			if t.in[linkKey(j, s)] == nil {
				l := &inLink{from: j, to: s, conn: conn, freeQ: make(chan []int, 3), ch: make(chan chanMsg, 2)}
				l.freeQ <- nil
				l.freeQ <- nil
				l.freeQ <- nil
				t.in[linkKey(j, s)] = l
			}
		}
	}
	t.pending = int32(len(t.conns))
	if t.pending == 0 {
		close(t.readyC)
	}
	return t, nil
}

// Peers returns the process indices this mesh exchanges frames with.
func (t *TCP) Peers() []int {
	ps := make([]int, 0, len(t.conns))
	for p := range t.conns {
		ps = append(ps, p)
	}
	return ps
}

// Dial establishes the outbound halves of the mesh: this process dials
// every needed peer with a smaller index (larger-index peers dial us,
// landing in AddConn via the worker's accept loop). Each dial retries
// with backoff within cfg.DialTimeout and opens with a peer hello
// carrying the job ID and our process index.
func (t *TCP) Dial() error {
	for p, conn := range t.conns {
		if p > t.cfg.Self {
			continue
		}
		c, err := dialRetry(t.cfg.Addrs[p], t.cfg.DialTimeout)
		if err != nil {
			return fmt.Errorf("transport: dial peer %d (%s): %w", p, t.cfg.Addrs[p], err)
		}
		if err := WritePeerHello(c, t.cfg.JobID, t.cfg.Self, t.cfg.WriteTimeout); err != nil {
			c.Close()
			return fmt.Errorf("transport: hello to peer %d: %w", p, err)
		}
		if err := t.attach(conn, c); err != nil {
			c.Close()
			return err
		}
	}
	return nil
}

// AddConn attaches an inbound peer connection (its hello already
// consumed by the accept loop).
func (t *TCP) AddConn(peer int, c net.Conn) error {
	conn := t.conns[peer]
	if conn == nil {
		return fmt.Errorf("transport: unexpected connection from process %d (no shared links)", peer)
	}
	return t.attach(conn, c)
}

func (t *TCP) attach(conn *tcpConn, c net.Conn) error {
	conn.mu.Lock()
	if conn.closed {
		conn.mu.Unlock()
		return fmt.Errorf("transport: peer %d: %w", conn.peer, conn.failure())
	}
	if conn.c != nil {
		conn.mu.Unlock()
		return fmt.Errorf("transport: duplicate connection from process %d", conn.peer)
	}
	conn.c = c
	conn.mu.Unlock()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	go conn.writeLoop(c)
	go conn.readLoop(c)
	if atomic.AddInt32(&t.pending, -1) == 0 {
		close(t.readyC)
	}
	return nil
}

// Ready blocks until every peer connection is attached, the transport
// closes, or the timeout expires.
func (t *TCP) Ready(timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-t.readyC:
		return nil
	case <-t.done:
		return ErrClosed
	case <-timer.C:
		return fmt.Errorf("transport: mesh not ready after %v (%d peer connections missing): %w",
			timeout, atomic.LoadInt32(&t.pending), ErrTimeout)
	}
}

// Send encodes the frame into one of the link's two recycled buffers
// and hands it to the peer connection's writer. Lockstep guarantees the
// buffer being reused was flushed: the engine only reaches round r+2 on
// a link after the peer advanced past round r+1, which needed our
// round-r frame on the wire.
func (t *TCP) Send(from, to, round int, states []int) error {
	l := t.out[linkKey(from, to)]
	if l == nil {
		return &LinkError{From: from, To: to}
	}
	select {
	case <-t.done:
		return ErrClosed
	default:
	}
	var buf []byte
	select {
	case buf = <-l.freeQ:
	case <-t.done:
		return ErrClosed
	case <-l.conn.done:
		return l.conn.failure()
	}
	f := Frame{From: from, To: to, Round: round, Seq: l.seq, States: states}
	enc, err := AppendFrame(buf[:0], &f)
	if err != nil {
		l.freeQ <- buf
		return err
	}
	l.seq++
	select {
	case l.conn.outQ <- outFrame{link: l, buf: enc}:
		// Counted once queued, not once written: the peer may answer the
		// frame, and a caller read Stats, before the writer returns.
		t.framesSent.Add(1)
		t.bytesSent.Add(int64(len(enc)))
		return nil
	case <-t.done:
		return ErrClosed
	case <-l.conn.done:
		return l.conn.failure()
	}
}

// Recv blocks for the round-r frame on from→to. The returned slice is
// recycled on the next Recv for the same link.
func (t *TCP) Recv(from, to, round, want int) ([]int, error) {
	l := t.in[linkKey(from, to)]
	if l == nil {
		return nil, &LinkError{From: from, To: to}
	}
	select {
	case <-t.done:
		return nil, ErrClosed
	default:
	}
	if l.cur != nil {
		l.freeQ <- l.cur
		l.cur = nil
	}
	timer := time.NewTimer(t.cfg.RecvTimeout)
	defer timer.Stop()
	var msg chanMsg
	select {
	case msg = <-l.ch:
	case <-t.done:
		return nil, ErrClosed
	case <-l.conn.done:
		return nil, l.conn.failure()
	case <-timer.C:
		return nil, &linkTimeout{from: from, to: to, round: round}
	}
	l.cur = msg.states
	if msg.round != round {
		return nil, &RoundError{From: from, To: to, Want: round, Got: msg.round}
	}
	if len(msg.states) != want {
		return nil, &SizeError{From: from, To: to, Want: want, Got: len(msg.states)}
	}
	return msg.states, nil
}

// Close poisons every link and tears down every peer connection.
func (t *TCP) Close() error {
	t.once.Do(func() {
		close(t.done)
		for _, conn := range t.conns {
			conn.poison(ErrClosed)
		}
	})
	return nil
}

// Stats returns the wire traffic so far.
func (t *TCP) Stats() Counters {
	return Counters{
		FramesSent: t.framesSent.Load(),
		BytesSent:  t.bytesSent.Load(),
		FramesRecv: t.framesRecv.Load(),
		BytesRecv:  t.bytesRecv.Load(),
	}
}

// failure returns the error that poisoned the connection.
func (c *tcpConn) failure() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrClosed
}

// poison marks the connection failed, closes the socket (unblocking any
// in-flight read or write), and wakes everyone selecting on done.
func (c *tcpConn) poison(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = err
	sock := c.c
	c.mu.Unlock()
	if sock != nil {
		sock.Close()
	}
	close(c.done)
}

func (c *tcpConn) writeLoop(sock net.Conn) {
	for {
		var of outFrame
		select {
		case of = <-c.outQ:
		case <-c.done:
			return
		case <-c.t.done:
			return
		}
		if c.t.cfg.WriteTimeout > 0 {
			sock.SetWriteDeadline(time.Now().Add(c.t.cfg.WriteTimeout))
		}
		if _, err := sock.Write(of.buf); err != nil {
			c.poison(writeErr(c.peer, err))
			return
		}
		of.link.freeQ <- of.buf // cap 2, never blocks: at most 2 buffers exist
	}
}

func (c *tcpConn) readLoop(sock net.Conn) {
	var lenBuf [4]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(sock, lenBuf[:]); err != nil {
			c.poison(readErr(c.peer, err))
			return
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n < frameHeaderLen || n > MaxFramePayload {
			c.poison(fmt.Errorf("transport: peer %d: %w", c.peer,
				&FrameError{Reason: fmt.Sprintf("payload length %d out of range", n)}))
			return
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(sock, payload); err != nil {
			c.poison(readErr(c.peer, err))
			return
		}
		f, err := decodeHeader(payload)
		if err != nil {
			c.poison(fmt.Errorf("transport: peer %d: %w", c.peer, err))
			return
		}
		l := c.t.in[linkKey(f.From, f.To)]
		if l == nil || l.conn != c {
			c.poison(fmt.Errorf("transport: peer %d: %w", c.peer, &LinkError{From: f.From, To: f.To}))
			return
		}
		if f.Seq != l.nextSeq {
			c.poison(fmt.Errorf("transport: peer %d: %w", c.peer,
				&SeqError{From: f.From, To: f.To, Want: l.nextSeq, Got: f.Seq}))
			return
		}
		l.nextSeq++
		var buf []int
		select {
		case buf = <-l.freeQ:
		case <-c.done:
			return
		case <-c.t.done:
			return
		}
		f, _ = DecodeFrame(payload, buf)
		c.t.framesRecv.Add(1)
		c.t.bytesRecv.Add(int64(len(payload)) + 4)
		select {
		case l.ch <- chanMsg{round: f.Round, states: f.States}:
		case <-c.done:
			return
		case <-c.t.done:
			return
		}
	}
}

func readErr(peer int, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("transport: peer %d closed the connection mid-stream: %w", peer, err)
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return fmt.Errorf("transport: read from peer %d: %w", peer, ErrTimeout)
	}
	return fmt.Errorf("transport: read from peer %d: %w", peer, err)
}

func writeErr(peer int, err error) error {
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return fmt.Errorf("transport: write to peer %d: %w", peer, ErrTimeout)
	}
	return fmt.Errorf("transport: write to peer %d: %w", peer, err)
}

// dialRetry dials addr with exponential backoff until it connects or
// the total budget is spent.
func dialRetry(addr string, total time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(total)
	backoff := 50 * time.Millisecond
	var lastErr error
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, fmt.Errorf("%w: dial %s gave up after %v: %v", ErrTimeout, addr, total, lastErr)
		}
		attempt := remaining
		if attempt > 2*time.Second {
			attempt = 2 * time.Second
		}
		c, err := net.DialTimeout("tcp", addr, attempt)
		if err == nil {
			return c, nil
		}
		lastErr = err
		sleep := backoff
		if sleep > remaining {
			sleep = remaining
		}
		time.Sleep(sleep)
		backoff *= 2
		if backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
}
