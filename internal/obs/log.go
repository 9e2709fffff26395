// Structured logging setup shared by the service binaries (cmd/mgd,
// cmd/mgload, cmd/mgrank): one log/slog logger per process, JSON or
// text via -log-format, every service line carrying the request-scoped
// attributes (trace_id, job_id, tenant, stage) that join logs to traces
// and flight records.
package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// discard is the process-wide no-op logger — the default when no log
// sink is configured, so call sites never nil-check.
var discard = slog.New(discardHandler{})

// discardHandler drops every record before formatting (Enabled is
// false, so slog never builds the record). It is what keeps a nil
// Observer's Log() path allocation-free.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// NewLogger builds the service logger: format "text" (the default,
// logfmt-style key=value lines) or "json" (one JSON object per line,
// machine-ingestible), at the given level, writing to w.
func NewLogger(w io.Writer, format string, level slog.Level) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
	}
}

// ParseLevel maps a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
}
