// MPIHalo: the distributed-memory MG of the paper's future-work section.
//
// "A direct comparison with the MPI-based parallel reference
// implementation of NAS-MG would be interesting" (paper §7). This example
// runs the domain-decomposed solver (internal/mgmpi) on the simulated
// message-passing world across rank counts, verifying each run against
// the official NPB reference and reporting the communication structure —
// the halo-exchange and allgather traffic a real MPI run pays for.
//
//	go run ./examples/mpihalo [-class S] [-ranks 1,2,4,8]
package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/sacmg"
)

func main() {
	className := flag.String("class", "S", "NPB size class")
	ranksFlag := flag.String("ranks", "1,2,4,8", "comma-separated rank counts (powers of two)")
	flag.Parse()

	class, err := sacmg.ClassByName(*className)
	if err != nil {
		fmt.Println(err)
		return
	}

	fmt.Printf("NAS MG class %s, slab-decomposed over a simulated MPI world\n\n", class)
	fmt.Printf("%6s %14s %9s %10s %12s %12s %10s\n",
		"ranks", "rnm2", "verified", "time", "messages", "volume", "msg/iter")
	for _, tok := range strings.Split(*ranksFlag, ",") {
		ranks, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			fmt.Println("bad rank count:", tok)
			return
		}
		s := sacmg.NewMPISolver(class, ranks)
		start := time.Now()
		rnm2, _ := s.Run()
		elapsed := time.Since(start)
		verified, _ := class.Verify(rnm2)
		st := s.Stats()
		fmt.Printf("%6d %14.6e %9v %10v %12d %9.2f MB %10.1f\n",
			ranks, rnm2, verified, elapsed.Round(time.Millisecond),
			st.Messages, float64(st.Bytes)/1e6,
			float64(st.Messages)/float64(class.Iter))
	}

	// The NPB MPI reference uses 3-D processor grids because cubes have
	// less surface per volume than slabs: compare at 8 ranks.
	cube := sacmg.NewMPISolver3D(class, 2, 2, 2)
	rnm2, _ := cube.Run()
	verified, _ := class.Verify(rnm2)
	st := cube.Stats()
	fmt.Printf("%6s %14.6e %9v %10s %12d %9.2f MB %10s\n",
		"(2,2,2)", rnm2, verified, "-", st.Messages, float64(st.Bytes)/1e6, "-")

	fmt.Println()
	fmt.Println("Every row verifies against the official NPB reference norm: the")
	fmt.Println("decomposition changes the communication structure, not the numerics.")
	fmt.Println("(The world is simulated in one address space, so the times show")
	fmt.Println("messaging overhead, not network cost; the message/byte counts are")
	fmt.Println("what a real cluster run would put on the wire.)")
}
