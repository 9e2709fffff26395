// The Prometheus text-format parser that the exposition tests read
// metrics.PromWriter's output back with: golden family files and value
// round trips.

package mgtest

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

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

// ParsePrometheus parses Prometheus text format (the subset
// metrics.PromWriter emits: comment lines, `name value` and
// `name{l1="v1",...} value` sample lines — no timestamps). It exists so
// the exposition can be round-trip-tested without external dependencies;
// it is strict about what it does parse, returning an error with the
// offending line on any malformed input, on a sample whose family has no
// # TYPE line before it, and on a family declared twice.
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
			return nil, fmt.Errorf("mgtest: prometheus line %d: %w (%q)", lineNo, err, line)
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
