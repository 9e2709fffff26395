package main

import (
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/mgmpi"
	"repro/internal/mpi"
	"repro/internal/mpinet"
	"repro/internal/nas"
)

const distRanks = 2

// distSection is the distributed solve: distRanks goroutine ranks in
// this process, meshed over loopback TCP by mpinet, each running
// mgmpi.RunRank; one round is an F77 reference solve, a synchronous solve
// and an overlapped one.
type distSection struct {
	class nas.Class
	check bitsChecker

	wantBits uint64 // rnm2 of the 1-rank mgmpi solve: every rank must match it

	t          [distRanks]*mpinet.Transport
	ref        *refSolver
	bootstrapS float64

	rttS, streamGBs float64 // wireProbe's results

	obs map[bool]*distObs // by overlap mode, traced pass only
}

// distObs sums, over the traced solves of one mode, the slowest rank's
// split into blocked and compute time, and the traffic.
type distObs struct {
	solves                       int
	solveS, blockedS, skewS      float64
	messages, payload, wireBytes uint64
}

func newDistSection(class nas.Class) *distSection { return &distSection{class: class} }

// prepare solves the problem on one rank: the expected output.
func (s *distSection) prepare() error {
	rnm2, _ := mgmpi.New(s.class, 1).Run()
	s.wantBits = math.Float64bits(rnm2)
	return s.check.checkSolve("mgmpi-1", s.class, rnm2)
}

func (s *distSection) setup() error {
	start := time.Now()
	cfg := mpinet.Config{Size: distRanks, Class: s.class.Name, IOTimeout: 20 * time.Second}
	cfg.Addr = "127.0.0.1:0"
	rz, err := mpinet.Listen(cfg)
	if err != nil {
		return err
	}
	joined := make(chan error, distRanks-1) // one send per joining rank
	for r := 1; r < distRanks; r++ {
		go func(r int) {
			c := cfg
			c.Rank, c.Addr = r, rz.Addr()
			t, err := mpinet.Join(c)
			s.t[r] = t
			joined <- err
		}(r)
	}
	s.t[0], err = rz.Accept() // closes the rendezvous listener
	for r := 1; r < distRanks; r++ {
		if jerr := <-joined; err == nil {
			err = jerr
		}
	}
	if err != nil {
		s.closeMesh()
		return fmt.Errorf("mesh bootstrap: %w", err)
	}
	s.bootstrapS = time.Since(start).Seconds()
	for _, overlap := range []bool{false, true} { // warm-up
		if _, err := s.solve(overlap, nil, "warm"); err != nil {
			s.closeMesh()
			return err
		}
	}
	ref, err := newRefSolver(s.class, &s.check)
	s.ref = ref
	return err
}

func (s *distSection) closeMesh() error {
	var first error
	for r, t := range s.t {
		if t != nil {
			if err := t.Close(); err != nil && first == nil {
				first = err
			}
			s.t[r] = nil
		}
	}
	return first
}

func (s *distSection) teardown() error {
	s.ref = nil
	return s.closeMesh()
}

func (s *distSection) peakRSSMB() (float64, error) { return peakRSSMB(os.Getpid()) }

// rankRun is one rank's share of one solve.
type rankRun struct {
	seconds float64
	rnm2    float64
	stats   mpi.Stats // this solve's traffic (delta)
	span    int
	err     error
}

// checkRanks is the correctness rule of one distributed solve: no rank
// failed and every rank's rnm2 is bit-equal to the 1-rank solve's.
func checkRanks(runs []rankRun, wantBits uint64) error {
	for r, run := range runs {
		if run.err != nil {
			return fmt.Errorf("rank %d: %w", r, run.err)
		}
		if bits := math.Float64bits(run.rnm2); bits != wantBits {
			return fmt.Errorf("rank %d: rnm2 bits %016x differ from the 1-rank solve's %016x", r, bits, wantBits)
		}
	}
	return nil
}

// solve runs one distributed solve over the mesh and returns the slowest
// rank's time.
func (s *distSection) solve(overlap bool, tr *tracer, req string) (float64, error) {
	name := "dist.solve.sync"
	if overlap {
		name = "dist.solve.overlap"
	}
	root := tr.begin(0, name, req)
	runs := make([]rankRun, distRanks)
	var wg sync.WaitGroup
	for r := range runs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			run := &runs[r]
			// A transport failure surfaces as a panic from the mpi.Comm
			// veneer naming rank and tag; it fails this solve only.
			defer func() {
				if p := recover(); p != nil {
					run.err = fmt.Errorf("%v", p)
				}
			}()
			solver, err := mgmpi.NewWithTransport(s.class, s.t[r])
			if err != nil {
				run.err = err
				return
			}
			solver.Overlap = overlap
			before := s.t[r].Stats()
			run.span = tr.begin(root, fmt.Sprintf("mgmpi.RunRank rank %d", r), req)
			start := time.Now()
			run.rnm2, _ = solver.RunRank()
			run.seconds = time.Since(start).Seconds()
			tr.end(run.span)
			after := s.t[r].Stats()
			run.stats = mpi.Stats{
				Messages:      after.Messages - before.Messages,
				Bytes:         after.Bytes - before.Bytes,
				WireBytes:     after.WireBytes - before.WireBytes,
				ExchangeNanos: after.ExchangeNanos - before.ExchangeNanos,
			}
		}(r)
	}
	wg.Wait()
	tr.end(root)
	slowest := 0
	for r, run := range runs {
		if run.seconds > runs[slowest].seconds {
			slowest = r
		}
	}
	err := checkRanks(runs, s.wantBits)
	if tr != nil && err == nil {
		s.observe(tr, overlap, req, runs, slowest)
	}
	return runs[slowest].seconds, err
}

// observe splits each rank's span into the time the transport reports it
// spent blocked in exchanges and the rest, compute.
func (s *distSection) observe(tr *tracer, overlap bool, req string, runs []rankRun, slowest int) {
	if s.obs == nil {
		s.obs = map[bool]*distObs{false: {}, true: {}}
	}
	o := s.obs[overlap]
	var msgs, payload, wire uint64
	fastest := runs[slowest].seconds
	for _, run := range runs {
		blocked := run.stats.ExchangeNanos
		compute := int64(run.seconds*1e9) - blocked
		if compute < 0 {
			compute = 0
		}
		tr.reported(run.span, req, 0, []string{"mgmpi.compute", "mpi.blocked"}, []int64{compute, blocked})
		msgs += run.stats.Messages
		payload += run.stats.Bytes
		wire += run.stats.WireBytes
		fastest = math.Min(fastest, run.seconds)
	}
	o.messages, o.payload, o.wireBytes = msgs, payload, wire
	o.solves++
	o.solveS += runs[slowest].seconds
	o.blockedS += float64(runs[slowest].stats.ExchangeNanos) / 1e9
	o.skewS += runs[slowest].seconds - fastest
}

func (s *distSection) pass(dur time.Duration, tr *tracer) *tally {
	t := newTally()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < dur; round++ {
		ref, ok := s.ref.timed(t, &s.check, kindRef, tr, fmt.Sprintf("f77-%d", round))
		var secs [2]float64 // sync, overlap
		for i, overlap := range []bool{false, true} {
			kind, req := kindOp, fmt.Sprintf("sync-%d", round)
			if overlap {
				kind, req = kindAlt, fmt.Sprintf("overlap-%d", round)
			}
			var err error
			secs[i], err = s.solve(overlap, tr, req)
			t.record(kind, secs[i], err)
			ok = ok && err == nil
			if err != nil && (s.t[0].Err() != nil || s.t[1].Err() != nil) {
				return t // the mesh is broken: later solves could only time out
			}
		}
		if ok {
			t.rates = append(t.rates, 2/(secs[0]+secs[1]))
			t.ratios = append(t.ratios, secs[0]/ref)
		}
	}
	return t
}

// Point-to-point probes over the same mesh, traced run only.
const (
	tagPing   = 9001
	tagStream = 9002
	// faceFloats is one class-W face with halo, 66×66 values: the frame
	// size the halo exchange of dist_W2 sends.
	faceFloats = 66 * 66
)

// wireProbe measures the 8-byte round trip and the one-way rate of
// face-sized frames between rank 0 and rank 1.
func (s *distSection) wireProbe(tr *tracer, pings, frames int) (rttS, streamGBs float64, err error) {
	echoErr := make(chan error, 1) // the echo side's single verdict
	go func() {
		echoErr <- func() error {
			for i := 0; i < pings; i++ {
				d, err := s.t[1].Recv(0, tagPing)
				if err != nil {
					return err
				}
				if err := s.t[1].Send(0, tagPing, d); err != nil {
					return err
				}
			}
			for i := 0; i < frames; i++ {
				if _, err := s.t[1].Recv(0, tagStream); err != nil {
					return err
				}
			}
			return s.t[1].Send(0, tagStream, []float64{1})
		}()
	}()
	ping := func() error {
		id := tr.begin(0, "mpinet ping-pong", "probe")
		defer tr.end(id)
		rtts := make([]float64, pings)
		for i := range rtts {
			start := time.Now()
			if err := s.t[0].Send(1, tagPing, []float64{float64(i)}); err != nil {
				return err
			}
			if _, err := s.t[0].Recv(1, tagPing); err != nil {
				return err
			}
			rtts[i] = time.Since(start).Seconds()
		}
		rttS = median(rtts)
		frame := make([]float64, faceFloats)
		start := time.Now()
		for i := 0; i < frames; i++ {
			if err := s.t[0].Send(1, tagStream, frame); err != nil {
				return err
			}
		}
		if _, err := s.t[0].Recv(1, tagStream); err != nil {
			return err
		}
		streamGBs = float64(frames*faceFloats*8) / time.Since(start).Seconds() / 1e9
		return nil
	}
	err = ping()
	if eerr := <-echoErr; err == nil {
		err = eerr
	}
	return rttS, streamGBs, err
}
