package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"
)

// startMeshListener accepts peer connections for tr on a loopback
// listener and returns its address.
func startMeshListener(t *testing.T, tr *TCP, jobID uint64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			m, err := ReadMagic(c, time.Second)
			if err != nil || m != MagicPeer {
				c.Close()
				continue
			}
			id, from, err := ReadPeerHello(c, time.Second)
			if err != nil || id != jobID {
				c.Close()
				continue
			}
			c.SetReadDeadline(time.Time{})
			if err := tr.AddConn(from, c); err != nil {
				c.Close()
			}
		}
	}()
	return ln.Addr().String()
}

// tcpPair builds a two-process loopback mesh for the 2-shard plan
// (shard 0 on process 0, shard 1 on process 1).
func tcpPair(t *testing.T, recvTimeout time.Duration) (*TCP, *TCP) {
	t.Helper()
	const jobID = 42
	base := TCPConfig{
		JobID:       jobID,
		Assign:      []int{0, 1},
		Neighbors:   twoShardNeighbors(),
		DialTimeout: 5 * time.Second,
		RecvTimeout: recvTimeout,
	}
	cfg0 := base
	cfg0.Self = 0
	cfg0.Addrs = []string{"", ""}
	t0, err := NewTCP(cfg0)
	if err != nil {
		t.Fatalf("NewTCP(0): %v", err)
	}
	addr0 := startMeshListener(t, t0, jobID)

	cfg1 := base
	cfg1.Self = 1
	cfg1.Addrs = []string{addr0, "127.0.0.1:0"}
	t1, err := NewTCP(cfg1)
	if err != nil {
		t.Fatalf("NewTCP(1): %v", err)
	}
	t.Cleanup(func() { t0.Close(); t1.Close() })

	if err := t1.Dial(); err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := t0.Ready(5 * time.Second); err != nil {
		t.Fatalf("proc 0 not ready: %v", err)
	}
	if err := t1.Ready(5 * time.Second); err != nil {
		t.Fatalf("proc 1 not ready: %v", err)
	}
	return t0, t1
}

func TestTCPPingPong(t *testing.T) {
	t0, t1 := tcpPair(t, 5*time.Second)

	const rounds = 50
	done := make(chan error, 1)
	go func() {
		buf := []int{0, 0, 0}
		for r := 0; r < rounds; r++ {
			buf[0], buf[1], buf[2] = r, 2*r, -r
			if err := t1.Send(1, 0, r, buf); err != nil {
				done <- err
				return
			}
			got, err := t1.Recv(0, 1, r, 2)
			if err != nil {
				done <- err
				return
			}
			if got[0] != r || got[1] != r*r {
				done <- errors.New("proc 1 saw wrong states")
				return
			}
		}
		done <- nil
	}()

	buf := []int{0, 0}
	for r := 0; r < rounds; r++ {
		buf[0], buf[1] = r, r*r
		if err := t0.Send(0, 1, r, buf); err != nil {
			t.Fatalf("send round %d: %v", r, err)
		}
		got, err := t0.Recv(1, 0, r, 3)
		if err != nil {
			t.Fatalf("recv round %d: %v", r, err)
		}
		if got[0] != r || got[1] != 2*r || got[2] != -r {
			t.Fatalf("round %d: got %v", r, got)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("proc 1: %v", err)
	}

	st := t0.Stats()
	if st.FramesSent != rounds || st.FramesRecv != rounds {
		t.Fatalf("proc 0 counters: %+v", st)
	}
	if st.BytesSent == 0 || st.BytesRecv == 0 {
		t.Fatalf("byte counters empty: %+v", st)
	}
}

func TestTCPRecvTimeout(t *testing.T) {
	t0, _ := tcpPair(t, 50*time.Millisecond)
	if _, err := t0.Recv(1, 0, 0, 3); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	t0, t1 := tcpPair(t, time.Minute)
	errC := make(chan error, 1)
	go func() {
		_, err := t0.Recv(1, 0, 0, 3)
		errC <- err
	}()
	time.Sleep(20 * time.Millisecond)
	t1.Close() // peer dies: proc 0's connection poisons
	select {
	case err := <-errC:
		if err == nil {
			t.Fatal("Recv returned data after peer closed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock when the peer closed")
	}
}

// rawPeer dials tr's listener pretending to be process `from` and
// returns the raw socket so tests can write hand-crafted bytes.
func rawPeer(t *testing.T, addr string, jobID uint64, from int) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	if err := WritePeerHello(c, jobID, from, time.Second); err != nil {
		t.Fatalf("raw hello: %v", err)
	}
	return c
}

func rawMesh(t *testing.T) (*TCP, net.Conn) {
	t.Helper()
	const jobID = 7
	cfg := TCPConfig{
		JobID:       jobID,
		Self:        0,
		Addrs:       []string{"", ""},
		Assign:      []int{0, 1},
		Neighbors:   twoShardNeighbors(),
		RecvTimeout: 5 * time.Second,
	}
	tr, err := NewTCP(cfg)
	if err != nil {
		t.Fatalf("NewTCP: %v", err)
	}
	t.Cleanup(func() { tr.Close() })
	addr := startMeshListener(t, tr, jobID)
	c := rawPeer(t, addr, jobID, 1)
	if err := tr.Ready(5 * time.Second); err != nil {
		t.Fatalf("ready: %v", err)
	}
	return tr, c
}

func TestTCPSeqGapFailsLoudly(t *testing.T) {
	tr, c := rawMesh(t)
	enc, err := AppendFrame(nil, &Frame{From: 1, To: 0, Round: 0, Seq: 5, States: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(enc); err != nil {
		t.Fatal(err)
	}
	var se *SeqError
	if _, err := tr.Recv(1, 0, 0, 3); !errors.As(err, &se) {
		t.Fatalf("want SeqError on sequence gap, got %v", err)
	} else if se.Want != 0 || se.Got != 5 {
		t.Fatalf("SeqError fields: %+v", se)
	}
}

func TestTCPGarbagePoisons(t *testing.T) {
	tr, c := rawMesh(t)
	// A length prefix inside bounds followed by garbage header bytes.
	var pre [4]byte
	binary.LittleEndian.PutUint32(pre[:], frameHeaderLen)
	c.Write(pre[:])
	c.Write(make([]byte, frameHeaderLen))
	var fe *FrameError
	if _, err := tr.Recv(1, 0, 0, 3); !errors.As(err, &fe) {
		t.Fatalf("want FrameError on garbage, got %v", err)
	}
}

func TestTCPOversizedLengthRejected(t *testing.T) {
	tr, c := rawMesh(t)
	var pre [4]byte
	binary.LittleEndian.PutUint32(pre[:], uint32(MaxFramePayload+1))
	c.Write(pre[:])
	if _, err := tr.Recv(1, 0, 0, 3); err == nil {
		t.Fatal("oversized length accepted")
	}
}

func TestTCPUnknownLink(t *testing.T) {
	tr, _ := tcpPair(t, time.Second)
	var le *LinkError
	if err := tr.Send(0, 0, 0, []int{1}); !errors.As(err, &le) {
		t.Fatalf("want LinkError, got %v", err)
	}
}

// TestTCPReaderNoHeadOfLineBlock: one peer connection carries several
// links, so its reader must never wait on one link's receiver while a
// frame for another link queues behind it on the wire. Lockstep lets a
// sender run two rounds past the frame its receiver last consumed: here
// shard 2 (which only waits on shard 0) does so while shard 0 still
// waits for shard 1's round-1 frame, sent after shard 2's round 2.
func TestTCPReaderNoHeadOfLineBlock(t *testing.T) {
	const jobID = 43
	base := TCPConfig{
		JobID:       jobID,
		Assign:      []int{0, 1, 1},
		Neighbors:   [][]int{{1, 2}, {0}, {0}},
		DialTimeout: 5 * time.Second,
		RecvTimeout: 2 * time.Second,
	}
	cfg0 := base
	cfg0.Self = 0
	cfg0.Addrs = []string{"", ""}
	t0, err := NewTCP(cfg0)
	if err != nil {
		t.Fatalf("NewTCP(0): %v", err)
	}
	addr0 := startMeshListener(t, t0, jobID)
	cfg1 := base
	cfg1.Self = 1
	cfg1.Addrs = []string{addr0, "127.0.0.1:0"}
	t1, err := NewTCP(cfg1)
	if err != nil {
		t.Fatalf("NewTCP(1): %v", err)
	}
	t.Cleanup(func() { t0.Close(); t1.Close() })
	if err := t1.Dial(); err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := t0.Ready(5 * time.Second); err != nil {
		t.Fatalf("proc 0 not ready: %v", err)
	}

	send := func(from, r int) {
		if err := t1.Send(from, 0, r, []int{from, r}); err != nil {
			t.Fatalf("send %d->0 round %d: %v", from, r, err)
		}
	}
	recv := func(from, r int) {
		got, err := t0.Recv(from, 0, r, 2)
		if err != nil {
			t.Fatalf("recv %d->0 round %d: %v", from, r, err)
		}
		if got[0] != from || got[1] != r {
			t.Fatalf("recv %d->0 round %d: got %v", from, r, got)
		}
	}
	send(1, 0)
	send(2, 0)
	recv(1, 0)
	recv(2, 0)
	send(2, 1)
	send(2, 2)
	send(1, 1)
	recv(1, 1)
	recv(2, 1)
	recv(2, 2)
}
