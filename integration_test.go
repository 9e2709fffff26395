// Cross-implementation integration tests: the repository contains five
// ways to compute the same benchmark — the paper's three contestants plus
// the two future-work variants — and they must all agree on the official
// problem.
package repro

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cport"
	"repro/internal/f77"
	"repro/internal/mgmpi"
	"repro/internal/nas"
	"repro/internal/periodic"
	wl "repro/internal/withloop"
)

// runAll executes every implementation on the given class and returns the
// final rnm2 norms keyed by name.
func runAll(t *testing.T, class nas.Class) map[string]float64 {
	t.Helper()
	out := map[string]float64{}

	fs := f77.New(class)
	out["f77"], _ = fs.Run()

	cs := cport.New(class)
	out["cport"], _ = cs.Run()

	sb := core.NewBenchmark(class, wl.Default())
	out["sac"], _ = sb.Run()

	pb := periodic.NewBenchmark(class, wl.Default())
	out["periodic"], _ = pb.Run()

	ms := mgmpi.New(class, 4)
	out["mgmpi(4)"], _ = ms.Run()

	return out
}

// Five implementations, one answer: every implementation passes the
// official verification and agrees with the reference within the sharper
// cross-implementation tolerance.
func TestAllImplementationsAgreeClassS(t *testing.T) {
	norms := runAll(t, nas.ClassS)
	ref := norms["f77"]
	for name, got := range norms {
		if verified, ok := nas.ClassS.Verify(got); !ok || !verified {
			t.Errorf("%s: rnm2 = %.13e did not pass the official verification", name, got)
		}
		if rel := math.Abs(got-ref) / ref; rel > 1e-10 {
			t.Errorf("%s: rnm2 = %.15e vs f77 %.15e (relative %.2e)", name, got, ref, rel)
		}
	}
	// The exact-equality classes: cport is a statement-level twin of f77;
	// periodic ≡ sac bitwise. mgmpi runs mg.f's algorithm on core's plane
	// kernels, so it agrees with both families to the tolerance above and
	// is bit-identical only within itself (internal/mgmpi's tests).
	if norms["cport"] != norms["f77"] {
		t.Errorf("cport diverges from f77: %.17e vs %.17e", norms["cport"], norms["f77"])
	}
	if norms["periodic"] != norms["sac"] {
		t.Errorf("periodic diverges from sac: %.17e vs %.17e", norms["periodic"], norms["sac"])
	}
}

func TestAllImplementationsAgreeClassW(t *testing.T) {
	if testing.Short() {
		t.Skip("class W cross-check skipped in -short")
	}
	norms := runAll(t, nas.ClassW)
	for name, got := range norms {
		if verified, ok := nas.ClassW.Verify(got); !ok || !verified {
			t.Errorf("%s: class W rnm2 = %.13e did not verify", name, got)
		}
	}
}

// Class A end-to-end for the paper's two headline implementations (~8 s).
func TestClassAEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("class A skipped in -short")
	}
	sb := core.NewBenchmark(nas.ClassA, wl.Default())
	sac, _ := sb.Run()
	if verified, ok := nas.ClassA.Verify(sac); !ok || !verified {
		t.Fatalf("SAC class A rnm2 = %.13e did not verify", sac)
	}
}

// Class B is the first of the paper's "larger problem sizes" (future
// work). Expensive (~25 s): runs only in the full suite.
func TestVerifyClassB(t *testing.T) {
	if testing.Short() {
		t.Skip("class B (256³, 20 iterations) skipped in -short")
	}
	s := f77.New(nas.ClassB)
	rnm2, _ := s.Run()
	if verified, ok := nas.ClassB.Verify(rnm2); !ok || !verified {
		want, _, _ := nas.ClassB.VerifyValue()
		t.Fatalf("class B rnm2 = %.13e, want %.13e", rnm2, want)
	}
}
