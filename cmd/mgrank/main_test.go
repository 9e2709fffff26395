package main

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Rejected invocations are one-line usage errors with exit status 2, found
// before the rank listens or dials: a rank count the slab decomposition
// cannot take, a rank outside the world, no worker threads, an unknown
// class. Each run is bounded, so a check that slipped behind the
// rendezvous fails here instead of waiting out the dial retries.
func TestUsageErrorsBeforeRendezvous(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "mgrank")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		args string
		want string
	}{
		{"-rank 0 -np 3", "mgrank: -np must be a power of two from 1 to 16 at class S; got 3"},
		{"-rank 0 -np 0", "mgrank: -np must be a power of two from 1 to 16 at class S; got 0"},
		{"-rank 0 -np 32", "mgrank: -np must be a power of two from 1 to 16 at class S; got 32"},
		{"-rank 3 -np 2 -join 127.0.0.1:1", "mgrank: -rank must be in 0..1; got 3"},
		{"-rank -1 -np 2", "mgrank: -rank must be in 0..1; got -1"},
		{"-rank 0 -np 2 -threads 0", "mgrank: -threads must be at least 1; got 0"},
		{"-rank 1 -np 2 -threads -1 -join 127.0.0.1:1", "mgrank: -threads must be at least 1; got -1"},
		{"-rank 0 -np 2 -class Q", `mgrank: nas: unknown class "Q"`},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		args := append([]string{"-class", "S", "-timeout", "1s", "-retries", "1"}, strings.Fields(c.args)...)
		out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
		cancel()
		got := strings.TrimSpace(string(out))
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || strings.Contains(got, "\n") ||
			!strings.Contains(got, c.want) || strings.Contains(got, "LISTEN") {
			t.Errorf("%s: %v, output %q; want exit status 2 and the one line %q", c.args, err, out, c.want)
		}
	}
}
