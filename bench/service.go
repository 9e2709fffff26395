package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/jobq"
	"repro/internal/nas"
	wl "repro/internal/withloop"
)

// serviceClients is the number of closed-loop HTTP clients: each sends
// its next request when the previous reply has arrived.
const serviceClients = 2

// repeatPercent of a client's requests re-ask the base problem (cache
// hits); the rest carry a fresh zran3 seed (cold solves).
const repeatPercent = 75

// daemon is one cmd/mgd child process.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	logPath string
	exited  chan struct{}
	waitErr error
}

// buildMgd compiles cmd/mgd into dir (the go build cache makes repeats
// cheap) and returns the binary's path.
func buildMgd(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(abs, "mgd")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/mgd").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build repro/cmd/mgd: %v\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches mgd on a port the benchmark picked and waits for
// /readyz. A daemon that does not come up within the deadline is killed
// and reported with the tail of its log.
func startDaemon(bin string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logPath := bin + ".log"
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d := &daemon{
		cmd:     exec.Command(bin, "-addr", addr, "-workers", "1", "-runners", "1"),
		url:     "http://" + addr,
		logPath: logPath,
		exited:  make(chan struct{}),
	}
	d.cmd.Stderr = logFile
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	// No keep-alive: the poll must leave no connection goroutine behind.
	poll := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := poll.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("mgd exited before it was ready: %v\n%s", d.waitErr, d.logTail())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("mgd not ready after 10s\n%s", d.logTail())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) logTail() string {
	blob, _ := os.ReadFile(d.logPath)
	if len(blob) > 2048 {
		blob = blob[len(blob)-2048:]
	}
	return string(blob)
}

// stop drains the daemon with SIGTERM and kills it if it has not exited
// within the deadline; it returns once the process is gone.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("mgd did not drain within 10s of SIGTERM and was killed")
	}
	if d.waitErr != nil {
		return fmt.Errorf("mgd exit: %w\n%s", d.waitErr, d.logTail())
	}
	return nil
}

// cpuSeconds is the exited daemon's user+system time.
func (d *daemon) cpuSeconds() float64 {
	ps := d.cmd.ProcessState
	return ps.UserTime().Seconds() + ps.SystemTime().Seconds()
}

// serviceSection is HTTP traffic against an mgd child with one worker
// and one runner: serviceClients closed-loop clients, wait:true, a mix of
// repeats of the base problem and unique seeds drawn from the run seed.
type serviceSection struct {
	class      nas.Class
	seed       uint64
	buildDir   string
	sampleCold int // unique seeds per client checked against a direct solve
	refSolves  int // F77 reference solves in each gap between slices

	check    bitsChecker
	bin      string
	expected map[uint64]uint64 // unique seed → rnm2 bits of a direct in-process solve

	d      *daemon
	client *http.Client
	ref    *refSolver
	// unique counts the cold problems each client has sent to this
	// daemon, so that a second pass does not re-ask the first one's.
	unique [serviceClients]int

	obs serviceObs
	// answered counts the replies the current daemon has sent, priming
	// and untraced passes included; cpuPerJob is the last stopped
	// daemon's user+system time over that count.
	answered  atomic.Int64
	cpuPerJob float64
}

// serviceObs is what the traced pass reads off the responses and the
// daemon's /v1/stats.
type serviceObs struct {
	ingress, queue, solve, respond []float64 // cold jobs' stages
	stageSum, stageTotal           float64
	coldOverhead                   []float64 // client latency − stages.total
	respBytes, jobs                int
	window                         float64
	stats                          jobq.Stats
}

func newServiceSection(class nas.Class, cfg config) *serviceSection {
	s := &serviceSection{class: class, seed: cfg.seed, buildDir: cfg.buildDir, sampleCold: 4, refSolves: 3}
	if cfg.tiny || class.N > nas.ClassW.N {
		s.sampleCold, s.refSolves = 1, 1 // a class-A solve costs seconds
	}
	return s
}

// uniqueSeed is client c's j-th cold problem: a splitmix64 draw from the
// run seed, reduced to the NPB generator's non-zero 46-bit state.
func uniqueSeed(seed uint64, client, j int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(client)<<40 + uint64(j) + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	z &= 1<<46 - 1
	if z == 0 {
		z = 1
	}
	return z
}

// prepare builds the daemon and solves the sampled unique problems
// directly, in process: the daemon's answers must match bit for bit.
func (s *serviceSection) prepare() error {
	bin, err := buildMgd(s.buildDir)
	if err != nil {
		return err
	}
	s.bin = bin
	s.expected = map[uint64]uint64{}
	env := wl.Default()
	defer env.Close()
	b := core.NewBenchmark(s.class, env)
	for c := 0; c < serviceClients; c++ {
		for j := 0; j < s.sampleCold; j++ {
			b.Seed = uniqueSeed(s.seed, c, j)
			rnm2, _ := b.Run()
			s.expected[b.Seed] = math.Float64bits(rnm2)
		}
	}
	return nil
}

func (s *serviceSection) setup() error {
	d, err := startDaemon(s.bin)
	if err != nil {
		return err
	}
	s.d = d
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}}
	// Prime the cache with the base problem: the first cold solve.
	r := s.request(0, nil, "prime")
	if r.err == nil && r.res.Cached {
		r.err = errors.New("the priming request was served from an empty cache")
	}
	var ref *refSolver
	if r.err == nil {
		ref, r.err = newRefSolver(s.class, &s.check)
	}
	if r.err != nil {
		s.client.CloseIdleConnections()
		d.stop()
		return fmt.Errorf("priming the base problem: %w", r.err)
	}
	s.ref = ref
	s.unique = [serviceClients]int{}
	s.answered.Store(1) // the priming request
	return nil
}

func (s *serviceSection) teardown() error {
	s.client.CloseIdleConnections()
	err := s.d.stop()
	s.cpuPerJob = s.d.cpuSeconds() / float64(s.answered.Load())
	s.d, s.client, s.ref = nil, nil, nil
	return err
}

func (s *serviceSection) peakRSSMB() (float64, error) { return peakRSSMB(s.d.cmd.Process.Pid) }

// reply is one answered request.
type reply struct {
	res     jobq.Result
	seconds float64
	bytes   int
	req     string
	span    int
	err     error
}

// checkResponse is the correctness rule of one reply: a 2xx status (a
// 429 is a failure, not backpressure to retry), a finished job, the NPB
// verdict on the base problem, and bit-equal norms where a direct solve
// of the same seed is known.
func (s *serviceSection) checkResponse(status int, res jobq.Result, seed uint64) error {
	if status < 200 || status > 299 {
		return fmt.Errorf("HTTP status %d", status)
	}
	if res.State != jobq.StateDone {
		return fmt.Errorf("job %s ended %s: %s", res.ID, res.State, res.Error)
	}
	if seed == 0 {
		if res.Verified == nil || !*res.Verified {
			return errors.New("base problem reply lacks verified:true")
		}
		return s.check.checkSolve("mgd-base", s.class, res.Rnm2)
	}
	if want, ok := s.expected[seed]; ok && math.Float64bits(res.Rnm2) != want {
		return fmt.Errorf("seed %d: rnm2 bits %016x differ from the direct solve's %016x",
			seed, math.Float64bits(res.Rnm2), want)
	}
	return nil
}

// request posts one wait:true solve and checks the reply. seed 0 is the
// base problem.
func (s *serviceSection) request(seed uint64, tr *tracer, req string) reply {
	body, _ := json.Marshal(jobq.Request{Class: string(s.class.Name), Seed: seed, Wait: true})
	r := reply{req: req}
	r.span = tr.begin(0, "http POST /v1/solve", req)
	start := time.Now()
	resp, err := s.client.Post(s.d.url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(r.span)
		r.err = err
		return r
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.seconds = time.Since(start).Seconds()
	tr.end(r.span)
	s.answered.Add(1)
	r.bytes = len(blob)
	if err != nil {
		r.err = err
		return r
	}
	if resp.StatusCode >= 200 && resp.StatusCode <= 299 {
		if err := json.Unmarshal(blob, &r.res); err != nil {
			r.err = fmt.Errorf("reply is not a job result: %w", err)
			return r
		}
	}
	r.err = s.checkResponse(resp.StatusCode, r.res, seed)
	return r
}

// serviceSlices is how many slices a pass cuts its window into, fewer
// when a slice would last under a second. Each slice gives one
// throughput sample; the reference solves run before, between and after
// the slices, while the clients rest, so that they are spread over the
// whole pass without competing with the requests for a core.
const serviceSlices = 20

// serviceClient is one closed-loop client's state across the slices of a
// pass: its generator and how many requests it has sent.
type serviceClient struct {
	rng  *rand.Rand
	sent int
}

// pass alternates reference solves and slices of client traffic. Each
// client opens with one unique seed and one repeat, so both kinds are
// sampled however short the pass; after that the mix is drawn from the
// client's own generator.
func (s *serviceSection) pass(dur time.Duration, tr *tracer) *tally {
	t := newTally()
	var before jobq.Stats
	if tr != nil {
		before, _ = s.stats()
	}
	var clients [serviceClients]serviceClient
	for c := range clients {
		clients[c].rng = rand.New(rand.NewSource(int64(s.seed)*serviceClients + int64(c)))
	}
	n := max(1, min(serviceSlices, int(dur/time.Second)))
	window := 0.0
	s.refRound(t, tr, 0)
	for k := 0; k < n; k++ {
		replies, elapsed := s.slice(dur/time.Duration(n), &clients, t, tr)
		s.refRound(t, tr, k+1)
		window += elapsed
		t.rates = append(t.rates, float64(replies)/elapsed)
	}
	if cold, ref := t.samples[kindOp], t.samples[kindRef]; len(cold) > 0 && len(ref) > 0 {
		t.ratios = []float64{best(cold) / best(ref)}
	}
	if tr != nil {
		after, err := s.stats()
		if err != nil {
			t.fail(err)
		}
		s.obs.window += window
		addStatsDelta(&s.obs.stats, after, before)
	}
	return t
}

// refRound runs the reference solves of one gap between slices.
func (s *serviceSection) refRound(t *tally, tr *tracer, gap int) {
	for i := 0; i < s.refSolves; i++ {
		s.ref.timed(t, &s.check, kindRef, tr, fmt.Sprintf("f77-%d-%d", gap, i))
	}
}

// slice runs the clients for d and returns how many good replies they
// got and how long the slice took.
func (s *serviceSection) slice(d time.Duration, clients *[serviceClients]serviceClient, t *tally, tr *tracer) (replies int, elapsed float64) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func(c int, cl *serviceClient) {
			defer wg.Done()
			for ; cl.sent < 2 || time.Since(start) < d; cl.sent++ {
				var seed uint64
				if cl.sent == 0 || (cl.sent > 1 && cl.rng.Intn(100) >= repeatPercent) {
					seed = uniqueSeed(s.seed, c, s.unique[c])
					s.unique[c]++
				}
				r := s.request(seed, tr, fmt.Sprintf("c%d-%d", c, cl.sent))
				kind := kindOp
				if r.res.Cached {
					kind = kindAlt
				}
				if r.err == nil && (seed == 0) != r.res.Cached {
					r.err = fmt.Errorf("seed %d: cached=%v, want the opposite", seed, r.res.Cached)
				}
				t.record(kind, r.seconds, r.err)
				if r.err != nil {
					continue
				}
				mu.Lock()
				replies++
				if tr != nil {
					s.observe(tr, r)
				}
				mu.Unlock()
			}
		}(c, &clients[c])
	}
	wg.Wait()
	return replies, time.Since(start).Seconds()
}

// observe turns one reply's reported stage breakdown into child spans of
// the request span and into the jobq.stage.* samples.
func (s *serviceSection) observe(tr *tracer, r reply) {
	s.obs.jobs++
	s.obs.respBytes += r.bytes
	st := r.res.Stages
	if st == nil {
		return
	}
	names := []string{"jobq.ingress", "jobq.queue", "jobq.solve", "jobq.respond"}
	secs := []float64{st.IngressSeconds, st.QueueSeconds, st.SolveSeconds, st.RespondSeconds}
	nanos := make([]int64, len(secs))
	for i, v := range secs {
		nanos[i] = int64(v * 1e9)
	}
	// The server does not say when, inside the client's interval, its
	// stages ran: centre them.
	offset := int64((r.seconds - st.TotalSeconds) * 1e9 / 2)
	if offset < 0 {
		offset = 0
	}
	tr.reported(r.span, r.req, offset, names, nanos)
	if r.res.Cached {
		return
	}
	s.obs.ingress = append(s.obs.ingress, st.IngressSeconds)
	s.obs.queue = append(s.obs.queue, st.QueueSeconds)
	s.obs.solve = append(s.obs.solve, st.SolveSeconds)
	s.obs.respond = append(s.obs.respond, st.RespondSeconds)
	s.obs.stageSum += st.IngressSeconds + st.QueueSeconds + st.SolveSeconds + st.RespondSeconds
	s.obs.stageTotal += st.TotalSeconds
	s.obs.coldOverhead = append(s.obs.coldOverhead, r.seconds-st.TotalSeconds)
}

// stats reads the daemon's queue counters.
func (s *serviceSection) stats() (jobq.Stats, error) {
	var st jobq.Stats
	resp, err := s.client.Get(s.d.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(blob)))
	}
	return st, json.Unmarshal(blob, &st)
}

// addStatsDelta adds the counters' growth from before to after to sum.
func addStatsDelta(sum *jobq.Stats, after, before jobq.Stats) {
	sum.Submitted += after.Submitted - before.Submitted
	sum.Completed += after.Completed - before.Completed
	sum.Failed += after.Failed - before.Failed
	sum.Rejected += after.Rejected - before.Rejected
	sum.Deduped += after.Deduped - before.Deduped
	sum.CacheHits += after.CacheHits - before.CacheHits
	sum.CacheMisses += after.CacheMisses - before.CacheMisses
}
