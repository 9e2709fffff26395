package metrics

import (
	"errors"
	"strings"
	"testing"
)

// failAfterWriter accepts the first n bytes, then fails every write.
type failAfterWriter struct {
	n       int
	written int
	fails   int
}

var errSink = errors.New("sink broke")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		w.fails++
		return 0, errSink
	}
	w.written += len(p)
	return len(p), nil
}

func TestTracerCloseIdempotent(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb)
	tr.Emit(Event{Ev: "iter", Iter: 1})
	if err := tr.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	flushed := sb.String()
	if !strings.Contains(flushed, `"iter":1`) {
		t.Fatalf("event not flushed by Close: %q", flushed)
	}

	// Double Close: same verdict, no further output.
	if err := tr.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	// Write-after-Close: dropped, not written, not counted.
	n := tr.Events()
	tr.Emit(Event{Ev: "iter", Iter: 2})
	if tr.Events() != n {
		t.Errorf("Emit after Close counted: %d -> %d", n, tr.Events())
	}
	if sb.String() != flushed {
		t.Errorf("output grew after Close:\nbefore %q\nafter  %q", flushed, sb.String())
	}
}

func TestTracerCloseOnErrorPath(t *testing.T) {
	// The sink fails as soon as the buffer drains: Close must surface the
	// flush error, and every later Close must return the same error
	// without re-driving the broken writer.
	w := &failAfterWriter{n: 0}
	tr := NewTracer(w)
	tr.Emit(Event{Ev: "iter", Iter: 1})
	err := tr.Close()
	if !errors.Is(err, errSink) {
		t.Fatalf("Close on a broken sink = %v, want %v", err, errSink)
	}
	failsAfterFirstClose := w.fails
	if err2 := tr.Close(); !errors.Is(err2, errSink) {
		t.Errorf("second Close = %v, want the sealed %v", err2, errSink)
	}
	if w.fails != failsAfterFirstClose {
		t.Errorf("sealed tracer re-touched the writer: %d -> %d failed writes",
			failsAfterFirstClose, w.fails)
	}
	// Emit after a failed Close stays silent.
	tr.Emit(Event{Ev: "iter", Iter: 2})
	if w.fails != failsAfterFirstClose {
		t.Errorf("Emit after failed Close touched the writer")
	}
}

func TestNilTracerCloseAndFlush(t *testing.T) {
	var tr *Tracer
	if err := tr.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	tr.Emit(Event{Ev: "iter", Iter: 1})
	if n := tr.Events(); n != 0 {
		t.Errorf("nil tracer counted %d events", n)
	}
}
