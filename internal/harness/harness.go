// Package harness drives the paper's experiments end to end: it runs the
// three MG implementations, times the NPB-defined benchmark section,
// collects work profiles, feeds them to the SMP simulator, and formats the
// rows/series of every figure in the paper's evaluation (§5):
//
//	Figure 11 — single-processor runtimes of F77, SAC and C per class;
//	Figure 12 — speedups relative to each implementation's own serial
//	            runtime for 1..10 processors;
//	Figure 13 — speedups relative to the fastest serial solution (F77).
//
// It also regenerates the claims stated in the text: the stencil flop
// ablation (T-stencil), the memory-management ablation (T-memmgmt) and
// the code-size comparison (T-codesize). See EXPERIMENTS.md for the
// paper-vs-measured record. cmd/mgbench is the command-line front end.
package harness

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cport"
	"repro/internal/f77"
	"repro/internal/mgmpi"
	"repro/internal/nas"
	"repro/internal/smp"
	wl "repro/internal/withloop"
)

// contestant is one single-process implementation of the paper's
// comparison: the name Figs. 11–13 print, a constructor that attaches a
// kernel probe (nil: none), and the traits the SMP simulator gives it.
type contestant struct {
	name   string
	build  func(nas.Class, nas.Probe) nas.Benchmark
	traits smp.Traits
}

// contestants lists the three implementations in the paper's order.
// Every figure times them through nas.Benchmark: Reset untimed, Solve
// timed.
var contestants = []contestant{
	{"F77", func(c nas.Class, p nas.Probe) nas.Benchmark {
		s := f77.New(c)
		s.Probe = p
		return s
	}, smp.F77Auto},
	{"SAC", func(c nas.Class, p nas.Probe) nas.Benchmark {
		b := core.NewBenchmark(c, wl.Default())
		b.Solver.Probe = p
		return b
	}, smp.SAC},
	{"C/OpenMP", func(c nas.Class, p nas.Probe) nas.Benchmark {
		s := cport.New(c)
		s.Probe = p
		return s
	}, smp.OpenMP},
}

// Fig11Row is the measurement of one size class: best-of-repeats seconds
// for the timed benchmark section per implementation, plus verification.
type Fig11Row struct {
	Class    nas.Class
	Seconds  map[string]float64
	Norm     map[string]float64
	Verified map[string]bool
}

// timed runs setup() (untimed) and then body() (timed) repeats times,
// returning the minimum duration of body and its last result.
func timed(repeats int, setup func(), body func() float64) (best time.Duration, norm float64) {
	if repeats < 1 {
		repeats = 1
	}
	best = time.Duration(1<<63 - 1)
	for i := 0; i < repeats; i++ {
		setup()
		start := time.Now()
		norm = body()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, norm
}

// RunFig11 measures the single-processor performance of all three
// implementations for the given classes (paper Fig. 11) and writes the
// table to w. repeats > 1 reports the best run (the NPB convention for
// repeated measurements).
func RunFig11(w io.Writer, classes []nas.Class, repeats int) []Fig11Row {
	var rows []Fig11Row
	fmt.Fprintf(w, "Figure 11 — single processor performance (timed section, best of %d)\n", repeats)
	fmt.Fprintf(w, "%-28s %12s %12s %12s\n", "class", "F77", "SAC", "C/OpenMP")
	for _, class := range classes {
		row := Fig11Row{
			Class:    class,
			Seconds:  map[string]float64{},
			Norm:     map[string]float64{},
			Verified: map[string]bool{},
		}

		for _, c := range contestants {
			b := c.build(class, nil)
			d, norm := timed(repeats, b.Reset, func() float64 {
				rnm2, _ := b.Solve()
				return rnm2
			})
			v, ok := class.Verify(norm)
			row.Seconds[c.name], row.Norm[c.name], row.Verified[c.name] = d.Seconds(), norm, v && ok
		}
		fmt.Fprintf(w, "%-28s %11.3fs %11.3fs %11.3fs\n", class.String(),
			row.Seconds["F77"], row.Seconds["SAC"], row.Seconds["C/OpenMP"])
		fmt.Fprintf(w, "%-28s %10.1fM %10.1fM %10.1fM   (Mop/s, NPB metric)\n", "  throughput",
			mops(class, row.Seconds["F77"]), mops(class, row.Seconds["SAC"]),
			mops(class, row.Seconds["C/OpenMP"]))
		fmt.Fprintf(w, "%-28s %12s %11.2fx %11.2fx   (verified: %v %v %v)\n", "  relative to F77", "1.00x",
			row.Seconds["SAC"]/row.Seconds["F77"], row.Seconds["C/OpenMP"]/row.Seconds["F77"],
			row.Verified["F77"], row.Verified["SAC"], row.Verified["C/OpenMP"])
		rows = append(rows, row)
	}
	fmt.Fprintf(w, "Paper shape: F77 fastest; SAC second (paper: +30%% W, +23%% A); C slowest (paper: ~1.5x F77).\n\n")
	return rows
}

// SpeedupSeries is one curve of Figure 12/13.
type SpeedupSeries struct {
	Impl     string
	Class    nas.Class
	Serial   float64   // measured serial seconds of the timed section
	Speedups []float64 // index p-1 → speedup at p processors
}

// CollectProfiles runs each implementation once per class with the probe
// attached and returns the measured work profiles keyed by implementation
// name.
func CollectProfiles(class nas.Class) map[string]smp.Profile {
	out := map[string]smp.Profile{}
	for _, c := range contestants {
		col := smp.NewCollector(c.name, class)
		b := c.build(class, col.Probe)
		b.Reset()
		b.Solve()
		out[c.name] = col.Profile()
	}
	return out
}

// RunFig12 regenerates Figure 12: per-implementation speedups relative to
// the implementation's own serial runtime, on the simulated SMP.
func RunFig12(w io.Writer, classes []nas.Class, m smp.Machine) []SpeedupSeries {
	var series []SpeedupSeries
	fmt.Fprintf(w, "Figure 12 — speedups relative to own sequential performance (simulated %d-proc SMP)\n", m.MaxProcs)
	for _, class := range classes {
		profiles := CollectProfiles(class)
		fmt.Fprintf(w, "class %c%28s", class.Name, "P=")
		for p := 1; p <= m.MaxProcs; p++ {
			fmt.Fprintf(w, "%6d", p)
		}
		fmt.Fprintln(w)
		for _, c := range contestants {
			prof := profiles[c.name]
			s := m.Speedups(prof, c.traits)
			series = append(series, SpeedupSeries{
				Impl: c.name, Class: class,
				Serial:   prof.SerialSeconds(),
				Speedups: s,
			})
			fmt.Fprintf(w, "  %-10s (serial %7.3fs) ", c.name, prof.SerialSeconds())
			for _, v := range s {
				fmt.Fprintf(w, "%6.2f", v)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "Paper endpoints at P=10: SAC 5.3 (W) / 7.6 (A); F77-auto 2.8 / 4.0; OpenMP 8.0 / 9.0.\n\n")
	for _, class := range classes {
		var group []SpeedupSeries
		for _, s := range series {
			if s.Class.Name == class.Name {
				group = append(group, s)
			}
		}
		renderSpeedupChart(w, fmt.Sprintf("Figure 12, class %c", class.Name), group)
	}
	return series
}

// RunFig13 regenerates Figure 13 from Figure 12's series: every curve is
// rebased to the fastest sequential solution in the field — the serial
// Fortran-77 runtime of the same class.
func RunFig13(w io.Writer, series []SpeedupSeries, m smp.Machine) []SpeedupSeries {
	fmt.Fprintf(w, "Figure 13 — speedups relative to sequential Fortran-77 performance\n")
	byClass := map[byte][]SpeedupSeries{}
	var order []byte
	for _, s := range series {
		if _, seen := byClass[s.Class.Name]; !seen {
			order = append(order, s.Class.Name)
		}
		byClass[s.Class.Name] = append(byClass[s.Class.Name], s)
	}
	var out []SpeedupSeries
	for _, name := range order {
		group := byClass[name]
		var f77Serial float64
		for _, s := range group {
			if s.Impl == "F77" {
				f77Serial = s.Serial
			}
		}
		fmt.Fprintf(w, "class %c%28s", name, "P=")
		for p := 1; p <= m.MaxProcs; p++ {
			fmt.Fprintf(w, "%6d", p)
		}
		fmt.Fprintln(w)
		for _, s := range group {
			rebased := SpeedupSeries{Impl: s.Impl, Class: s.Class, Serial: s.Serial}
			factor := f77Serial / s.Serial
			for _, v := range s.Speedups {
				rebased.Speedups = append(rebased.Speedups, v*factor)
			}
			out = append(out, rebased)
			fmt.Fprintf(w, "  %-10s (serial %7.3fs) ", s.Impl, s.Serial)
			for _, v := range rebased.Speedups {
				fmt.Fprintf(w, "%6.2f", v)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "Paper shape: SAC overtakes auto-parallelized F77 (at P=4 in the paper; later here\n")
	fmt.Fprintf(w, "because our serial SAC/F77 gap is larger than the paper's 23%%).\n\n")
	for _, name := range order {
		var group []SpeedupSeries
		for _, s := range out {
			if s.Class.Name == name {
				group = append(group, s)
			}
		}
		renderSpeedupChart(w, fmt.Sprintf("Figure 13, class %c", name), group)
	}
	return out
}

// MPIStatsRow reports the communication structure of one distributed run.
type MPIStatsRow struct {
	Ranks    int
	Rnm2     float64
	Verified bool
	Messages uint64
	Bytes    uint64
}

// RunMPIStats exercises the future-work MPI comparison: the
// domain-decomposed MG (internal/mgmpi) across rank counts, reporting the
// verification verdict and the communication volume of one full benchmark
// run per configuration.
func RunMPIStats(w io.Writer, class nas.Class, rankCounts []int) []MPIStatsRow {
	fmt.Fprintf(w, "MPI-style domain decomposition (future work §7), class %c\n", class.Name)
	fmt.Fprintf(w, "%14s %14s %10s %12s %14s\n", "proc grid", "rnm2", "verified", "messages", "halo volume")
	var rows []MPIStatsRow
	run := func(label string, s *mgmpi.Solver) {
		rnm2, _ := s.Run()
		verified, _ := class.Verify(rnm2)
		st := s.Stats()
		rows = append(rows, MPIStatsRow{
			Ranks: s.Ranks(), Rnm2: rnm2, Verified: verified,
			Messages: st.Messages, Bytes: st.Bytes,
		})
		fmt.Fprintf(w, "%14s %14.6e %10v %12d %11.2f MB\n",
			label, rnm2, verified, st.Messages, float64(st.Bytes)/1e6)
	}
	for _, ranks := range rankCounts {
		run(fmt.Sprintf("(%d,1,1)", ranks), mgmpi.New(class, ranks))
	}
	// The cube decomposition at the largest slab rank count, for the
	// surface-to-volume comparison (the NPB MPI reference uses 3-D grids).
	if len(rankCounts) > 0 && rankCounts[len(rankCounts)-1] >= 8 {
		run("(2,2,2)", mgmpi.New3D(class, 2, 2, 2))
	}
	fmt.Fprintf(w, "Messages grow with ranks (more halo partners, an allgather among more\n")
	fmt.Fprintf(w, "ranks); slab faces do not shrink with the slab — and the 3-D cube\n")
	fmt.Fprintf(w, "decomposition moves less data than the 1-D slab at the same rank count,\n")
	fmt.Fprintf(w, "which is why NPB-MPI uses it.\n\n")
	return rows
}

// CodeSizeRow reports the source volume of one implementation.
type CodeSizeRow struct {
	Impl  string
	Files []string
	Lines int
}

// RunCodeSize regenerates T-codesize: the paper reports the SAC source to
// be "more than an order of magnitude" smaller than the low-level codes.
// It counts non-blank, non-comment lines of the benchmark implementations.
// The SAC-style algorithm is core.go alone — fused.go is the modeled
// output of the SAC compiler's WITH-loop folding, not source a SAC
// programmer writes. The measured Go-level ratio understates the paper's,
// because the original artifacts are ~2000 lines of Fortran-77 (mg.f with
// its own zran3/norms/driver) against ~150 lines of SAC, while our ports
// share the NPB problem spec (internal/nas) and the Go runtime.
func RunCodeSize(w io.Writer, repoRoot string) ([]CodeSizeRow, error) {
	rows := []CodeSizeRow{
		{Impl: "SAC program (paper Figs. 4/6/7 + driver)", Files: []string{"internal/core/core.go"}},
		{Impl: "  sac2c folding output + instrumentation (excluded)", Files: []string{"internal/core/fused.go", "internal/core/observe.go"}},
		{Impl: "F77 reference port", Files: []string{"internal/f77/f77.go"}},
		{Impl: "C/OpenMP port", Files: []string{"internal/cport/cport.go"}},
		{Impl: "shared NPB spec (zran3/comm3/norms)", Files: []string{"internal/nas/nas.go"}},
	}
	fmt.Fprintf(w, "Code size (non-blank, non-comment lines, excluding tests)\n")
	for i := range rows {
		total := 0
		for _, rel := range rows[i].Files {
			n, err := countFileLines(filepath.Join(repoRoot, rel))
			if err != nil {
				return nil, err
			}
			total += n
		}
		rows[i].Lines = total
		fmt.Fprintf(w, "  %-44s %5d lines\n", rows[i].Impl, total)
	}
	fmt.Fprintf(w, "Context: the paper compares ~150 lines of SAC against ~2000 lines of\n")
	fmt.Fprintf(w, "Fortran-77 (mg.f carries its own random numbers, norms and driver, which\n")
	fmt.Fprintf(w, "these ports share via internal/nas), hence its >10x claim.\n\n")
	return rows, nil
}

// countFileLines counts non-blank, non-comment lines of one Go file.
func countFileLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("harness: code size: %w", err)
	}
	defer f.Close()
	total := 0
	sc := bufio.NewScanner(f)
	inBlock := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case inBlock:
			if strings.Contains(line, "*/") {
				inBlock = false
			}
		case line == "" || strings.HasPrefix(line, "//"):
		case strings.HasPrefix(line, "/*"):
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
		default:
			total++
		}
	}
	return total, sc.Err()
}
