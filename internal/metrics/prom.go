// Prometheus text-format exposition (format version 0.0.4), and a strict
// parser of that format so the repository can round-trip-test its own
// exposition without external dependencies. PromWriter is the only code
// in the repository that knows the format: the /metrics endpoints of
// cmd/mg, cmd/mgd and cmd/mgrank write every family through it.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
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

// PromSample is one parsed Prometheus text-format sample line. Family
// and Type come from the # TYPE line of the family the sample belongs to
// (a histogram's _bucket, _sum and _count samples belong to it).
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
	Family string
	Type   string
}

// Label returns the sample's value for one label name ("" when absent).
func (s PromSample) Label(name string) string { return s.Labels[name] }

// ParsePrometheus parses Prometheus text format (the subset PromWriter
// emits: comment lines, `name value` and `name{l1="v1",...} value` sample
// lines — no timestamps). It exists so the exposition can be
// round-trip-tested without external dependencies; it is strict about
// what it does parse, returning an error with the offending line on any
// malformed input, on a sample whose family has no # TYPE line before it,
// and on a family declared twice.
func ParsePrometheus(r io.Reader) ([]PromSample, error) {
	var samples []PromSample
	types := map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		var err error
		switch f := strings.Fields(line); {
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			if _, dup := types[f[2]]; dup {
				err = fmt.Errorf("family %s declared twice", f[2])
			}
			types[f[2]] = f[3]
		case line == "" || strings.HasPrefix(line, "#"):
		default:
			var s PromSample
			if s, err = parsePromLine(line); err == nil {
				s.Family, s.Type, err = promFamily(s.Name, types)
				samples = append(samples, s)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("metrics: prometheus line %d: %w (%q)", lineNo, err, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}

// promFamily finds the declared family a sample name belongs to.
func promFamily(name string, types map[string]string) (family, typ string, err error) {
	if typ, ok := types[name]; ok {
		return name, typ, nil
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
			return base, "histogram", nil
		}
	}
	return "", "", fmt.Errorf("sample %s has no # TYPE line", name)
}

// parsePromLine parses one sample line.
func parsePromLine(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	i := 0
	for i < len(line) && isPromNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("missing metric name")
	}
	s.Name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end := -1
		// Find the closing brace outside quoted label values.
		inQuote := false
		for j := 1; j < len(rest); j++ {
			switch {
			case inQuote && rest[j] == '\\':
				j++
			case rest[j] == '"':
				inQuote = !inQuote
			case !inQuote && rest[j] == '}':
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label set")
		}
		if err := parsePromLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	valText := strings.TrimSpace(rest)
	if valText == "" {
		return s, fmt.Errorf("missing value")
	}
	v, err := strconv.ParseFloat(valText, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q", valText)
	}
	s.Value = v
	return s, nil
}

// parsePromLabels parses `l1="v1",l2="v2"` into labels.
func parsePromLabels(text string, labels map[string]string) error {
	for text != "" {
		eq := strings.IndexByte(text, '=')
		if eq <= 0 {
			return fmt.Errorf("bad label pair %q", text)
		}
		name := text[:eq]
		rest := text[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return fmt.Errorf("unquoted label value for %q", name)
		}
		val, tail, err := unquotePromValue(rest)
		if err != nil {
			return err
		}
		labels[name] = val
		text = strings.TrimPrefix(tail, ",")
	}
	return nil
}

// unquotePromValue consumes one quoted label value (with \\, \" and \n
// escapes) and returns the remainder of the text.
func unquotePromValue(text string) (val, rest string, err error) {
	var b strings.Builder
	for i := 1; i < len(text); i++ {
		switch text[i] {
		case '\\':
			if i+1 >= len(text) {
				return "", "", fmt.Errorf("dangling escape in %q", text)
			}
			i++
			switch text[i] {
			case 'n':
				b.WriteByte('\n')
			case '\\', '"':
				b.WriteByte(text[i])
			default:
				return "", "", fmt.Errorf("bad escape \\%c", text[i])
			}
		case '"':
			return b.String(), text[i+1:], nil
		default:
			b.WriteByte(text[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value in %q", text)
}

// isPromNameChar reports whether c may appear in a metric/label name.
func isPromNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	default:
		return false
	}
}

// PromIndex groups parsed samples by metric name, preserving order within
// a name — the shape round-trip tests want to assert against.
func PromIndex(samples []PromSample) map[string][]PromSample {
	idx := map[string][]PromSample{}
	for _, s := range samples {
		idx[s.Name] = append(idx[s.Name], s)
	}
	return idx
}

// PromSchema lists the families of parsed samples, one sorted line per
// family: its name, its type and its sorted label names. Golden tests pin
// an endpoint's families with it while the values change from run to run.
func PromSchema(samples []PromSample) string {
	labels := map[string]map[string]bool{}
	for _, s := range samples {
		key := s.Family + " " + s.Type
		if labels[key] == nil {
			labels[key] = map[string]bool{}
		}
		for name := range s.Labels {
			labels[key][name] = true
		}
	}
	var lines []string
	for key, set := range labels {
		var names []string
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		lines = append(lines, strings.TrimSpace(key+" "+strings.Join(names, ","))+"\n")
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}
