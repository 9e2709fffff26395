// Prometheus text-format exposition (format version 0.0.4). PromWriter is
// the only code in the repository that writes the format: the /metrics
// endpoints of cmd/mg, cmd/mgd and cmd/mgrank write every family through
// it. Its strict parser, for the round-trip tests, is
// internal/mgtest.ParsePrometheus.
package metrics

import (
	"io"
	"strconv"
	"strings"
)

// PromWriter writes Prometheus text exposition. Consecutive samples of one
// family share one # HELP/# TYPE header, so a family's samples must be
// written together. The first write error is latched: later writes are
// dropped and Err reports it.
type PromWriter struct {
	w      io.Writer
	family string // the family whose header was written last
	buf    []byte
	err    error
}

// NewPromWriter returns a writer onto w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

// Counter writes one sample of counter family name. labels alternate
// label names and values.
func (p *PromWriter) Counter(name, help string, v float64, labels ...string) {
	p.header(name, "counter", help)
	p.sample(name, labels, v)
}

// Gauge writes one sample of gauge family name.
func (p *PromWriter) Gauge(name, help string, v float64, labels ...string) {
	p.header(name, "gauge", help)
	p.sample(name, labels, v)
}

// Histogram writes h as one series of histogram family name: cumulative
// _bucket samples from le = 2⁰ up to the highest occupied bucket, then
// +Inf, _sum and _count. Bounds and sum are divided by unit, so 1e9
// exposes nanoseconds as seconds.
func (p *PromWriter) Histogram(name, help string, h *Hist, unit float64, labels ...string) {
	p.header(name, "histogram", help)
	top := -1
	for i, n := range h.Counts {
		if n > 0 {
			top = i
		}
	}
	bucket := append(labels[:len(labels):len(labels)], "le", "")
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += h.Counts[i]
		bucket[len(bucket)-1] = strconv.FormatFloat(float64(uint64(1)<<i)/unit, 'g', -1, 64)
		p.sample(name+"_bucket", bucket, float64(cum))
	}
	bucket[len(bucket)-1] = "+Inf"
	p.sample(name+"_bucket", bucket, float64(cum))
	p.sample(name+"_sum", labels, float64(h.Sum)/unit)
	p.sample(name+"_count", labels, float64(cum))
}

// header starts family name unless its samples are being written already.
func (p *PromWriter) header(name, typ, help string) {
	if name == p.family {
		return
	}
	p.family = name
	p.buf = append(p.buf[:0], "# HELP "+name+" "+help+"\n# TYPE "+name+" "+typ+"\n"...)
	p.flush()
}

// labelEscaper escapes a label value as the text format requires.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// sample writes one sample line.
func (p *PromWriter) sample(name string, labels []string, v float64) {
	b := append(p.buf[:0], name...)
	sep := byte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		b = append(b, sep)
		b = append(b, labels[i]...)
		b = append(b, `="`...)
		b = append(b, labelEscaper.Replace(labels[i+1])...)
		b = append(b, '"')
		sep = ','
	}
	if sep == ',' {
		b = append(b, '}')
	}
	b = append(b, ' ')
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	p.buf = append(b, '\n')
	p.flush()
}

func (p *PromWriter) flush() {
	if p.err == nil {
		_, p.err = p.w.Write(p.buf)
	}
}

// WritePrometheus renders the snapshot as Prometheus text-format metrics:
// per-(kernel, level) invocation/point/time counters and duration
// histogram, derived GFLOP/s and bandwidth gauges (for kernels with a cost
// model), the coverage ratio, and per-worker scheduler counters. Label
// values are the kernel name and the decimal grid level, so one series per
// (kernel, level) cell.
func (s Snapshot) WritePrometheus(w io.Writer, costs CostModel) {
	p := NewPromWriter(w)
	for _, k := range s.Kernels {
		p.Counter("mg_kernel_invocations_total", "Fused-kernel invocations per (kernel, grid level).",
			float64(k.Invocations), "kernel", k.Kernel, "level", strconv.Itoa(k.Level))
	}
	for _, k := range s.Kernels {
		p.Counter("mg_kernel_points_total", "Grid points processed per (kernel, grid level).",
			float64(k.Points), "kernel", k.Kernel, "level", strconv.Itoa(k.Level))
	}
	for _, k := range s.Kernels {
		p.Counter("mg_kernel_seconds_total", "Wall time accumulated per (kernel, grid level).",
			k.Seconds(), "kernel", k.Kernel, "level", strconv.Itoa(k.Level))
	}
	for _, k := range s.Kernels {
		p.Histogram("mg_kernel_duration_seconds", "Invocation duration histogram per (kernel, grid level).",
			&k.Hist, 1e9, "kernel", k.Kernel, "level", strconv.Itoa(k.Level))
	}
	if costs != nil {
		for _, k := range s.Kernels {
			if cost := costs(k.Kernel, k.Variant); cost != (Cost{}) {
				p.Gauge("mg_kernel_gflops", "Effective GFLOP/s per (kernel, grid level), from the per-point work model.",
					k.gflops(cost.Flops), "kernel", k.Kernel, "level", strconv.Itoa(k.Level))
			}
		}
		for _, k := range s.Kernels {
			if cost := costs(k.Kernel, k.Variant); cost != (Cost{}) {
				p.Gauge("mg_kernel_gb_per_second", "Effective memory bandwidth per (kernel, grid level).",
					k.gbPerSec(cost.Bytes), "kernel", k.Kernel, "level", strconv.Itoa(k.Level))
			}
		}
	}
	if frac, ok := s.Coverage(); ok {
		p.Gauge("mg_kernel_coverage_ratio", "Fraction of solve time the per-kernel rows account for.", frac)
	}
	for _, ws := range s.Workers {
		p.Counter("mg_worker_loops_total", "Parallel loop fan-outs each worker took part in.",
			float64(ws.Loops), "worker", strconv.Itoa(ws.Worker))
	}
	for _, ws := range s.Workers {
		p.Counter("mg_worker_busy_seconds_total", "Wall time each worker spent inside parallel loop bodies.",
			float64(ws.BusyNanos)/1e9, "worker", strconv.Itoa(ws.Worker))
	}
}
