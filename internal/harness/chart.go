// ASCII rendering of the speedup figures: the paper presents Figures 12
// and 13 as line charts, so mgbench can draw the same curves in the
// terminal in addition to the numeric series.
package harness

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/nas"
)

// chartHeight is the number of character rows of the plot area.
const chartHeight = 16

// implMark maps each implementation to its curve marker.
var implMark = map[string]byte{"F77": 'F', "SAC": 'S', "C/OpenMP": 'O'}

// renderSpeedupChart draws the given speedup series (all of one class) as
// an ASCII line chart: x = processors, y = speedup. Markers: F = F77,
// S = SAC, O = C/OpenMP; '*' marks coinciding points.
func renderSpeedupChart(w io.Writer, title string, series []SpeedupSeries) {
	if len(series) == 0 {
		return
	}
	maxP := 0
	maxS := 1.0
	for _, s := range series {
		if len(s.Speedups) > maxP {
			maxP = len(s.Speedups)
		}
		for _, v := range s.Speedups {
			if v > maxS {
				maxS = v
			}
		}
	}
	const colWidth = 5 // characters per processor column
	width := maxP * colWidth
	grid := make([][]byte, chartHeight)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	// Plot each series.
	for _, s := range series {
		mark, ok := implMark[s.Impl]
		if !ok {
			mark = '+'
		}
		for p, v := range s.Speedups {
			x := p*colWidth + colWidth/2
			y := chartHeight - 1 - int(v/maxS*float64(chartHeight-1)+0.5)
			if y < 0 {
				y = 0
			}
			if grid[y][x] == ' ' {
				grid[y][x] = mark
			} else if grid[y][x] != mark {
				grid[y][x] = '*'
			}
		}
	}
	fmt.Fprintf(w, "%s  (F = F77-auto, S = SAC, O = OpenMP, * = coincide)\n", title)
	for i, row := range grid {
		// Y-axis label: the speedup value of this row.
		v := float64(chartHeight-1-i) / float64(chartHeight-1) * maxS
		fmt.Fprintf(w, "%6.1f |%s\n", v, string(row))
	}
	fmt.Fprintf(w, "%6s +%s\n", "", strings.Repeat("-", width))
	var axis strings.Builder
	for p := 1; p <= maxP; p++ {
		axis.WriteString(fmt.Sprintf("%*d", colWidth, p))
	}
	fmt.Fprintf(w, "%6s %s  (processors)\n\n", "", axis.String())
}

// mops converts a measured benchmark time to the NPB reporting metric
// (millions of operations per second, using the class's official
// operation count).
func mops(class nas.Class, seconds float64) float64 {
	return class.FlopCount() / seconds / 1e6
}
