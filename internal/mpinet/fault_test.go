package mpinet

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"
)

// rawPeer builds a 2-rank world where rank 0 is a real Transport and
// rank 1 is a bare TCP connection the test drives byte by byte — the
// harness for injecting malformed traffic. Returns the transport and
// the test's end of the wire.
func rawPeer(t *testing.T, ioTimeout time.Duration) (*Transport, net.Conn) {
	t.Helper()
	noLeak(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed := make(chan net.Conn, 1)
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Error(err)
			dialed <- nil
			return
		}
		dialed <- c
	}()
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	raw := <-dialed
	if raw == nil {
		t.FailNow()
	}
	cfg := Config{Rank: 0, Size: 2, Addr: "-", IOTimeout: ioTimeout, DialRetries: 1, DialBackoff: time.Millisecond}.withDefaults()
	peers := make([]*peer, 2)
	peers[1] = newPeer(1, accepted)
	tr := newTransport(cfg, peers)
	t.Cleanup(func() { tr.Close(); raw.Close() })
	return tr, raw
}

// recvErr runs Recv(1, tag) and asserts it fails within the deadline
// budget rather than hanging.
func recvErr(t *testing.T, tr *Transport, budget time.Duration) error {
	t.Helper()
	start := time.Now()
	_, err := tr.Recv(1, 9)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Recv succeeded, want a typed error")
	}
	if elapsed > budget {
		t.Fatalf("Recv took %v to fail, want under %v (no hang)", elapsed, budget)
	}
	return err
}

func TestFaultTornFrame(t *testing.T) {
	tr, raw := rawPeer(t, 300*time.Millisecond)
	// A valid header promising 10 floats, then silence: the stream has
	// started a frame and must finish it within IOTimeout.
	full := encodeFrame(1, 9, make([]float64, 10))
	if _, err := raw.Write(full[:headerLen+4]); err != nil {
		t.Fatal(err)
	}
	// The pending Recv fails within its own deadline; the torn frame is
	// detected on the same clock, so assert the transport's recorded
	// failure rather than racing the two timers.
	recvErr(t, tr, 2*time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for tr.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	var fe *FrameError
	if err := tr.Err(); !errors.As(err, &fe) {
		t.Fatalf("transport error %v (%T), want *FrameError", err, err)
	}
	if fe.Peer != 1 {
		t.Errorf("FrameError.Peer = %d, want 1", fe.Peer)
	}
}

func TestFaultBadChecksum(t *testing.T) {
	tr, raw := rawPeer(t, time.Second)
	frame := encodeFrame(1, 9, []float64{1, 2, 3})
	frame[len(frame)-1] ^= 0xff
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	err := recvErr(t, tr, 2*time.Second)
	var ce *ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v (%T), want *ChecksumError", err, err)
	}
	if ce.Peer != 1 || ce.Tag != 9 {
		t.Errorf("ChecksumError = %+v, want Peer 1 Tag 9", ce)
	}
}

func TestFaultBadMagic(t *testing.T) {
	tr, raw := rawPeer(t, time.Second)
	junk := make([]byte, 64)
	for i := range junk {
		junk[i] = 0x5a
	}
	if _, err := raw.Write(junk); err != nil {
		t.Fatal(err)
	}
	err := recvErr(t, tr, 2*time.Second)
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v (%T), want *FrameError (desynchronized stream)", err, err)
	}
}

func TestFaultPeerClosesMidSolve(t *testing.T) {
	tr, raw := rawPeer(t, 5*time.Second)
	// The peer dies without a goodbye — a crash, not a clean exit.
	done := make(chan error, 1)
	go func() {
		_, err := tr.Recv(1, 9)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Recv block
	raw.Close()
	select {
	case err := <-done:
		var pe *PeerError
		if !errors.As(err, &pe) {
			t.Fatalf("error %v (%T), want *PeerError", err, err)
		}
		if pe.Peer != 1 || pe.Op != "read" {
			t.Errorf("PeerError = %+v, want Peer 1 Op read", pe)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv still blocked 2s after the peer connection dropped")
	}
}

func TestFaultAbortRelayNamesCulprit(t *testing.T) {
	tr, raw := rawPeer(t, 5*time.Second)
	// Rank 1 relays that rank 7 died; our pending Recv must surface
	// PeerDeadError{Peer: 7, Via: 1}.
	if _, err := raw.Write(encodeFrame(1, tagAbort, []float64{7})); err != nil {
		t.Fatal(err)
	}
	err := recvErr(t, tr, 2*time.Second)
	var dead *PeerDeadError
	if !errors.As(err, &dead) {
		t.Fatalf("error %v (%T), want *PeerDeadError", err, err)
	}
	if dead.Peer != 7 || dead.Via != 1 {
		t.Errorf("PeerDeadError = %+v, want Peer 7 Via 1", dead)
	}
}

func TestFaultRecvTimeout(t *testing.T) {
	tr, _ := rawPeer(t, 200*time.Millisecond)
	err := recvErr(t, tr, 2*time.Second)
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error %v (%T), want *TimeoutError", err, err)
	}
	if te.Peer != 1 {
		t.Errorf("TimeoutError.Peer = %d, want 1", te.Peer)
	}
}

func TestFaultGoodbyeIsNotDeath(t *testing.T) {
	tr, raw := rawPeer(t, time.Second)
	// A message, then a clean goodbye and EOF: the message must deliver
	// and the transport must not fail.
	if _, err := raw.Write(encodeFrame(1, 9, []float64{42})); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(encodeFrame(1, tagGoodbye, nil)); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	data, err := tr.Recv(1, 9)
	if err != nil {
		t.Fatalf("Recv after goodbye: %v", err)
	}
	if len(data) != 1 || data[0] != 42 {
		t.Fatalf("payload = %v, want [42]", data)
	}
	time.Sleep(50 * time.Millisecond)
	if err := tr.Err(); err != nil {
		t.Fatalf("transport failed after a clean goodbye: %v", err)
	}
}

// TestFaultVersionMismatch joins a rendezvous with a future protocol
// version: rank 0's Accept and the joiner's own bootstrap must both
// fail with VersionError.
func TestFaultVersionMismatch(t *testing.T) {
	noLeak(t)
	cfg := Config{Rank: 0, Size: 2, Addr: "127.0.0.1:0", IOTimeout: 2 * time.Second}
	rz, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acceptErr := make(chan error, 1)
	go func() {
		_, err := rz.Accept()
		acceptErr <- err
	}()
	conn, err := net.Dial("tcp", rz.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeHello(conn, time.Second, hello{version: 99, rank: 1, size: 2, addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	// Rank 0 rejects the world.
	err = <-acceptErr
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("Accept error %v (%T), want *VersionError", err, err)
	}
	if ve.Got != 99 {
		t.Errorf("VersionError.Got = %d, want 99", ve.Got)
	}
	// The joiner learns the same from the reply.
	if _, err := readReply(conn, time.Second, 2); err == nil {
		t.Error("joiner readReply succeeded, want version rejection")
	} else if !errors.As(err, &ve) {
		t.Errorf("joiner error %v (%T), want *VersionError", err, err)
	}
}

// TestFaultHandshakeBadRank joins with an out-of-range rank id.
func TestFaultHandshakeBadRank(t *testing.T) {
	noLeak(t)
	cfg := Config{Rank: 0, Size: 2, Addr: "127.0.0.1:0", IOTimeout: 2 * time.Second}
	rz, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acceptErr := make(chan error, 1)
	go func() {
		_, err := rz.Accept()
		acceptErr <- err
	}()
	conn, err := net.Dial("tcp", rz.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeHello(conn, time.Second, hello{version: ProtocolVersion, rank: 5, size: 2, addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	err = <-acceptErr
	var he *HandshakeError
	if !errors.As(err, &he) {
		t.Fatalf("Accept error %v (%T), want *HandshakeError", err, err)
	}
	if he.Peer != 5 {
		t.Errorf("HandshakeError.Peer = %d, want 5", he.Peer)
	}
}

// TestFaultRendezvousTimeout starts a world that never completes: rank
// 0 must give up at the rendezvous deadline with a TimeoutError naming
// the missing ranks, not hang.
func TestFaultRendezvousTimeout(t *testing.T) {
	noLeak(t)
	cfg := Config{
		Rank: 0, Size: 3, Addr: "127.0.0.1:0",
		IOTimeout: 300 * time.Millisecond, DialRetries: 1, DialBackoff: time.Millisecond,
	}
	rz, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = rz.Accept()
	elapsed := time.Since(start)
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("Accept error %v (%T), want *TimeoutError", err, err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Accept took %v to give up", elapsed)
	}
}

// TestFaultImplausibleLength rejects a frame whose length field would
// demand an absurd allocation.
func TestFaultImplausibleLength(t *testing.T) {
	tr, raw := rawPeer(t, time.Second)
	hdr := make([]byte, headerLen)
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:], 1)
	binary.LittleEndian.PutUint32(hdr[8:], 9)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(maxFrameFloats+1))
	if _, err := raw.Write(hdr); err != nil {
		t.Fatal(err)
	}
	err := recvErr(t, tr, 2*time.Second)
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v (%T), want *FrameError", err, err)
	}
}
