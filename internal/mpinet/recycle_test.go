package mpinet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/mempool"
	"repro/internal/mpi"
)

// rawWorld is rawPeer for any world size: rank 0 is a real Transport and
// every other rank a bare TCP connection the test reads and writes.
// raws[0] is nil.
func rawWorld(t *testing.T, size int) (*Transport, []net.Conn) {
	t.Helper()
	noLeak(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := Config{Rank: 0, Size: size, Addr: "-", IOTimeout: 5 * time.Second}.withDefaults()
	peers := make([]*peer, size)
	raws := make([]net.Conn, size)
	for r := 1; r < size; r++ {
		if raws[r], err = net.Dial("tcp", ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
		accepted, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		peers[r] = newPeer(r, accepted)
	}
	tr := newTransport(cfg, peers)
	tr.free.SetParanoid(true) // before any traffic: a buffer given back twice panics
	t.Cleanup(func() {
		tr.Close()
		for _, c := range raws[1:] {
			c.Close()
		}
	})
	return tr, raws
}

// face is message i of a test stream: n values no other message shares.
func face(i, n int) []float64 {
	data := make([]float64, n)
	for k := range data {
		data[k] = float64(i) + float64(k)/float64(n)
	}
	return data
}

// churn passes face-sized messages both ways between rank 0 and every raw
// peer, releasing each received payload, so that the frames the test then
// provokes come out of a pool that has recycled memory in it.
func churn(t *testing.T, tr *Transport, raws []net.Conn) {
	t.Helper()
	hdr := make([]byte, headerLen)
	for i := 0; i < 8; i++ {
		for r := 1; r < len(raws); r++ {
			want := face(i, 100+i)
			if err := tr.Send(r, 9, want); err != nil {
				t.Fatal(err)
			}
			if _, got, err := readFrame(raws[r], hdr, 0); err != nil || !sameFloats(got, want) {
				t.Fatalf("message %d to raw rank %d arrived as %v (err %v)", i, r, got, err)
			}
			if _, err := raws[r].Write(encodeFrame(r, 9, want)); err != nil {
				t.Fatal(err)
			}
			got, err := tr.Recv(r, 9)
			if err != nil || !sameFloats(got, want) {
				t.Fatalf("message %d from raw rank %d arrived as %v (err %v)", i, r, got, err)
			}
			tr.Release(got)
		}
	}
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRecycleControlFrames is the recycling-safety test the flake sweep
// runs under -race. Control frames go to several peers, and every write
// returns the frame it wrote to the pool, so each peer must get a frame of
// its own: a shared one would be recycled twice — the pool's paranoid mode
// panics on that — and overwritten while it is still being sent.
func TestRecycleControlFrames(t *testing.T) {
	hdr := make([]byte, headerLen)
	raw := func(c net.Conn) (frameHeader, []float64, error) {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		return readFrame(c, hdr, 0) // validates magic, source, length and CRC
	}

	// A dying rank: the transport relays an abort to every peer but the
	// culprit, so it takes four ranks for two frames to be in flight. Both
	// surviving raw ranks must read a valid abort naming rank 3.
	t.Run("abort", func(t *testing.T) {
		tr, raws := rawWorld(t, 4)
		churn(t, tr, raws)
		raws[3].Close()
		for r := 1; r <= 2; r++ {
			h, data, err := raw(raws[r])
			if err != nil || h.tag != tagAbort || len(data) != 1 || data[0] != 3 {
				t.Errorf("raw rank %d read header %+v payload %v (err %v), want an abort naming rank 3", r, h, data, err)
			}
		}
		<-tr.failed // closed before the aborts are written
		var pe *PeerError
		if err := tr.Err(); !errors.As(err, &pe) || pe.Peer != 3 {
			t.Errorf("transport error %v, want a PeerError naming rank 3", err)
		}
		tr.Close()
	})

	// The same death among three real transports: both survivors fail
	// naming rank 2 — whether each saw the broken connection itself or the
	// other survivor's abort first — and never with a frame or checksum
	// error, which is what a recycled-while-in-flight frame would cause.
	t.Run("three ranks", func(t *testing.T) {
		trs := localWorld(t, 3, nil)
		for _, tr := range trs {
			tr.free.SetParanoid(true)
		}
		trs[2].fail(errors.New("killed")) // a crash relays nothing: no culprit, and the one failure is spent
		for _, p := range trs[2].peers {
			if p != nil {
				p.conn.Close()
			}
		}
		for r := 0; r < 2; r++ {
			_, err := trs[r].Recv(2, 9)
			var pe *PeerError
			var dead *PeerDeadError
			switch {
			case errors.As(err, &dead) && dead.Peer == 2:
			case errors.As(err, &pe) && pe.Peer == 2:
			default:
				t.Errorf("rank %d: Recv failed with %v (%T), want an error naming rank 2", r, err, err)
			}
		}
	})

	// A clean Close: every peer reads an intact goodbye, then EOF.
	t.Run("goodbye", func(t *testing.T) {
		tr, raws := rawWorld(t, 3)
		churn(t, tr, raws)
		tr.Close()
		for r := 1; r <= 2; r++ {
			h, data, err := raw(raws[r])
			if err != nil || h.tag != tagGoodbye || len(data) != 0 {
				t.Errorf("raw rank %d read header %+v payload %v (err %v), want a goodbye", r, h, data, err)
			}
			if _, _, err := raw(raws[r]); err == nil {
				t.Errorf("raw rank %d: a frame followed the goodbye", r)
			}
		}
	})
}

// TestReleasedPayloadNeverSeenMutated streams messages both ways between
// two ranks. The receiver checks every value of every payload, then poisons
// and releases most of them and holds on to the rest: a later receive must
// never show poison (a recycled buffer is overwritten in full before it is
// handed out again) and a held payload must still be intact at the end
// (nothing is recycled until it is released). Half the released buffers come
// back as frames of the echo stream, so under -race this also catches a
// frame still being written after it has been handed out again.
func TestReleasedPayloadNeverSeenMutated(t *testing.T) {
	const messages = 300
	size := func(i int) int { return 900 + 17*(i%7) } // seven lengths, seven pool keys
	trs := localWorld(t, 2, nil)
	for _, tr := range trs {
		tr.free.SetParanoid(true) // a payload released twice panics
	}
	errc := make(chan error, 1)
	go func() { // rank 0: stream, and check the echo of every third message
		errc <- func() error {
			for i := 0; i < messages; i++ {
				if err := trs[0].Send(1, 5, face(i, size(i))); err != nil {
					return err
				}
				if i%3 == 0 {
					got, err := trs[0].Recv(1, 6)
					if err != nil {
						return err
					}
					if !sameFloats(got, face(-i, size(i))) {
						t.Errorf("echo %d arrived mutated", i)
					}
					trs[0].Release(got)
				}
			}
			return nil
		}()
	}()
	held := map[int][]float64{}
	for i := 0; i < messages; i++ {
		got, err := trs[1].Recv(0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloats(got, face(i, size(i))) {
			t.Fatalf("message %d arrived mutated (first value %v)", i, got[0])
		}
		if i%3 == 0 {
			if err := trs[1].Send(0, 6, face(-i, size(i))); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 0 {
			held[i] = got
			continue
		}
		for k := range got {
			got[k] = math.NaN()
		}
		trs[1].Release(got)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	for i, got := range held {
		if !sameFloats(got, face(i, size(i))) {
			t.Errorf("held payload %d was mutated after it was received", i)
		}
	}
}

// TestPortableByteOrderMatchesBulk forces the value-by-value byte-order
// path big-endian hosts take and compares it, bit for bit, with the bulk
// copy and with the encoder the wire format was defined by.
func TestPortableByteOrderMatchesBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff0000000000001)}
	for i := 0; i < 500; i++ {
		data = append(data, math.Float64frombits(rng.Uint64()))
	}
	ref := make([]byte, headerLen+8*len(data))
	binary.LittleEndian.PutUint32(ref[0:], frameMagic)
	binary.LittleEndian.PutUint32(ref[4:], 2)
	binary.LittleEndian.PutUint32(ref[8:], 0xfffffff9) // tag −7
	binary.LittleEndian.PutUint32(ref[12:], uint32(len(data)))
	for i, v := range data {
		binary.LittleEndian.PutUint64(ref[headerLen+8*i:], math.Float64bits(v))
	}
	frame := encodeFrame(2, -7, data)
	if !bytes.Equal(frame[:len(ref)], ref) {
		t.Fatal("the frame differs from the value-by-value reference encoding")
	}
	words := append([]float64(nil), data...)
	wireOrder(words) // host → wire, the portable way
	if !bytes.Equal(wordBytes(words), ref[headerLen:]) {
		t.Fatal("the portable path's payload bytes differ from the bulk path's")
	}
	wireOrder(words) // wire → host
	if !sameFloats(words, data) {
		t.Fatal("the portable path does not decode what it encoded")
	}
	_, got, err := readFrame(bytes.NewReader(frame), make([]byte, headerLen), 2)
	if err != nil || !sameFloats(got, data) {
		t.Fatalf("the frame decoded to %d values (err %v), want the %d sent", len(got), err, len(data))
	}
}

// BenchmarkFrameRoundTrip builds, checksums, reads back and validates one
// class-W face (66×66 values) through a warm pool: 0 B/op.
func BenchmarkFrameRoundTrip(b *testing.B) {
	free := mempool.New(true)
	data := face(1, 66*66)
	hdr := make([]byte, headerLen)
	var rd bytes.Reader
	roundTrip := func() {
		frame := buildFrame(mpi.GetBuffer(free, frameWords(len(data))), 0, 9, data)
		rd.Reset(frameBytes(frame))
		_, payload, err := recvFrame(&rd, hdr, 0, free)
		if err != nil || len(payload) != len(data) {
			b.Fatalf("round trip: %d values, err %v", len(payload), err)
		}
		mpi.PutBuffer(free, frame)
		mpi.PutBuffer(free, payload)
	}
	if allocs := testing.AllocsPerRun(10, roundTrip); allocs != 0 {
		b.Fatalf("a warm frame round trip allocates %.0f objects, want 0", allocs)
	}
	b.ReportAllocs()
	b.SetBytes(int64(8 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}
