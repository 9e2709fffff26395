// Command mgload is the saturation load generator for the mgd daemon:
// concurrent HTTP clients submit a configurable mix of repeat traffic
// (cache hits) and unique problems (cold solves, distinguished by their
// zran3 seed) for a fixed duration, then report jobs/sec and the p50/p99
// latency of hits and misses separately.
//
//	mgd -addr :8750 &
//	mgload -url http://localhost:8750 -clients 8 -duration 10s -repeat 75
//
// The report prints as a table; -json also writes it as one JSON object.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/jobq"
	"repro/internal/obs"
	"repro/internal/perfstat"
)

func main() {
	var (
		url       = flag.String("url", "http://localhost:8750", "mgd base URL")
		clients   = flag.Int("clients", 8, "concurrent submitters")
		duration  = flag.Duration("duration", 10*time.Second, "load duration")
		class     = flag.String("class", "S", "NPB size class to submit")
		impl      = flag.String("impl", "sac", "implementation: sac, f77 or c")
		repeat    = flag.Int("repeat", 75, "percent of submissions that repeat the base problem (cache hits)")
		seed      = flag.Int64("seed", 1, "RNG seed for the traffic mix")
		jsonOut   = flag.String("json", "", "write the report as JSON to this file")
		logFormat = flag.String("log-format", "text", "structured log format: text or json")
	)
	flag.Parse()
	logger, err := obs.NewLogger(os.Stderr, *logFormat, slog.LevelInfo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgload:", err)
		os.Exit(2)
	}
	if *repeat < 0 || *repeat > 100 {
		logger.Error("-repeat must be 0..100", "repeat", *repeat)
		os.Exit(2)
	}

	if err := waitReady(*url, 10*time.Second); err != nil {
		logger.Error("daemon not ready", "url", *url, "error", err)
		os.Exit(1)
	}

	rep := run(*url, *clients, *duration, *class, *impl, *repeat, *seed)
	rep.write(os.Stdout)

	if *jsonOut != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			logger.Error("marshal report", "error", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(blob, '\n'), 0o644); err != nil {
			logger.Error("write report", "path", *jsonOut, "error", err)
			os.Exit(1)
		}
	}
	if rep.Failed > 0 {
		logger.Warn("load run saw failed submissions", "failed", rep.Failed)
		os.Exit(1)
	}
}

// waitReady polls /readyz until the daemon accepts work.
func waitReady(url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("daemon at %s not ready: %v", url, err)
			}
			return fmt.Errorf("daemon at %s not ready", url)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// report is the saturation measurement mgload prints and exports.
type report struct {
	URL            string  `json:"url"`
	Class          string  `json:"class"`
	Impl           string  `json:"impl"`
	Clients        int     `json:"clients"`
	RepeatPercent  int     `json:"repeatPercent"`
	Seconds        float64 `json:"seconds"`
	Jobs           int     `json:"jobs"`
	JobsPerSec     float64 `json:"jobsPerSec"`
	Hits           int     `json:"hits"`
	Misses         int     `json:"misses"`
	Rejected       int     `json:"rejected"`
	Retries        int     `json:"retries"`
	Failed         int     `json:"failed"`
	HitP50Micros   float64 `json:"hitP50Micros"`
	HitP99Micros   float64 `json:"hitP99Micros"`
	MissP50Millis  float64 `json:"missP50Millis"`
	MissP99Millis  float64 `json:"missP99Millis"`
	HitSpeedupP50  float64 `json:"hitSpeedupP50"`
	RetryAfterSecs int     `json:"retryAfterSeconds,omitempty"`
}

func (r report) write(w *os.File) {
	fmt.Fprintf(w, "--- mgload: %s class %s/%s, %d clients, %d%% repeat, %.1f s ---\n",
		r.URL, r.Class, r.Impl, r.Clients, r.RepeatPercent, r.Seconds)
	fmt.Fprintf(w, "%-18s %10.1f jobs/s  (%d jobs: %d hits, %d misses, %d rejected/%d retried, %d failed)\n",
		"throughput", r.JobsPerSec, r.Jobs, r.Hits, r.Misses, r.Rejected, r.Retries, r.Failed)
	fmt.Fprintf(w, "%-18s %10.1f us   p99 %10.1f us\n", "cache-hit latency", r.HitP50Micros, r.HitP99Micros)
	fmt.Fprintf(w, "%-18s %10.2f ms   p99 %10.2f ms\n", "cold-solve latency", r.MissP50Millis, r.MissP99Millis)
	fmt.Fprintf(w, "%-18s %10.0fx  (cold p50 / hit p50)\n", "hit speedup", r.HitSpeedupP50)
}

// run drives the load and collects per-response latency, classified by
// the daemon's Cached flag.
func run(url string, clients int, duration time.Duration, class, impl string, repeat int, seed int64) report {
	type sample struct {
		seconds float64
		cached  bool
	}
	var (
		mu       sync.Mutex
		samples  []sample
		rejected int
		retries  int
		failed   int
		retryMax int
	)
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	var seedCounter int64 = 1 << 20 // unique-problem seeds start here
	var seedMu sync.Mutex

	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			client := &http.Client{Timeout: 5 * time.Minute}
			for time.Now().Before(deadline) {
				req := jobq.Request{Class: class, Impl: impl, Wait: true, Tenant: "mgload"}
				if rng.Intn(100) >= repeat {
					seedMu.Lock()
					seedCounter++
					req.Seed = uint64(seedCounter)
					seedMu.Unlock()
				}
				body, _ := json.Marshal(req)
				start := time.Now()
				resp, err := client.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					mu.Lock()
					failed++
					mu.Unlock()
					continue
				}
				elapsed := time.Since(start).Seconds()
				var res jobq.Result
				decodeErr := json.NewDecoder(resp.Body).Decode(&res)
				retry := resp.Header.Get("Retry-After")
				resp.Body.Close()
				mu.Lock()
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
					rejected++
					retries++
					if n, err := strconv.Atoi(retry); err == nil && n > retryMax {
						retryMax = n
					}
					mu.Unlock()
					// Honor the daemon's backoff, capped so a long estimate
					// does not idle the generator past the deadline, and
					// jittered (equal jitter: half fixed, half random) so the
					// rejected clients do not re-submit in lockstep and hammer
					// the queue with a synchronized retry wave.
					d := time.Second
					if n, err := strconv.Atoi(retry); err == nil && n >= 1 {
						d = time.Duration(n) * time.Second
					}
					if d > 2*time.Second {
						d = 2 * time.Second
					}
					d = d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
					time.Sleep(d)
					continue
				case resp.StatusCode != http.StatusOK || decodeErr != nil || res.State != jobq.StateDone:
					failed++
				default:
					samples = append(samples, sample{seconds: elapsed, cached: res.Cached})
				}
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if d := duration.Seconds(); elapsed < d {
		elapsed = d
	}

	var hits, misses []float64
	for _, s := range samples {
		if s.cached {
			hits = append(hits, s.seconds)
		} else {
			misses = append(misses, s.seconds)
		}
	}
	rep := report{
		URL: url, Class: class, Impl: impl, Clients: clients,
		RepeatPercent: repeat, Seconds: elapsed,
		Jobs: len(samples), JobsPerSec: float64(len(samples)) / elapsed,
		Hits: len(hits), Misses: len(misses),
		Rejected: rejected, Retries: retries, Failed: failed,
		HitP50Micros:   perfstat.Quantile(hits, 0.5) * 1e6,
		HitP99Micros:   perfstat.Quantile(hits, 0.99) * 1e6,
		MissP50Millis:  perfstat.Quantile(misses, 0.5) * 1e3,
		MissP99Millis:  perfstat.Quantile(misses, 0.99) * 1e3,
		RetryAfterSecs: retryMax,
	}
	if p50 := perfstat.Quantile(hits, 0.5); p50 > 0 {
		rep.HitSpeedupP50 = perfstat.Quantile(misses, 0.5) / p50
	}
	return rep
}
