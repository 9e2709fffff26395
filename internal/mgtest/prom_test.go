package mgtest

import (
	"strings"
	"testing"
)

func TestParsePrometheusEscapes(t *testing.T) {
	in := "# TYPE m_total counter\n" + `m_total{k="a\"b\\c\nd"} 1.5` + "\n"
	samples, err := ParsePrometheus(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].Value != 1.5 {
		t.Fatalf("parsed %+v", samples)
	}
	if got := samples[0].Label("k"); got != "a\"b\\c\nd" {
		t.Fatalf("label = %q", got)
	}
}

func TestParsePrometheusRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"1leading_digit 2",
		"name_only",
		`m{k="unterminated} 1`,
		`m{k=unquoted} 1`,
		"m not-a-number",
		"m_total 1",                            // no # TYPE line
		"# TYPE m gauge\n# TYPE m gauge\nm 1",  // a family declared twice
		"# TYPE m gauge\nm_bucket{le=\"1\"} 1", // _bucket of a non-histogram
	} {
		if _, err := ParsePrometheus(strings.NewReader(bad + "\n")); err == nil {
			t.Fatalf("ParsePrometheus accepted %q", bad)
		}
	}
}
