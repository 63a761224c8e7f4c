// Package bench implements the experiment harness of DESIGN.md: one
// function per experiment (E1..E10), each returning a printable table.
// cmd/onionbench renders them; the root-level Go benchmarks wrap the same
// code paths with testing.B.
//
// The paper (EDBT 2000) has no quantitative evaluation section — its
// figures are the architecture (Fig. 1) and the worked example (Fig. 2) —
// so E1/E2 reproduce the figures mechanically and E3..E10 quantify the
// paper's qualitative claims (scalability, maintainability, semi-
// automation, light inference). EXPERIMENTS.md records outcomes.
package bench

import (
	"fmt"
	"strings"
	"time"
)

// Table is one experiment's result: a header and rows of cells.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render prints the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// ms renders a duration in milliseconds with three decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000.0)
}

// timeIt runs f once and returns its wall-clock duration.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// All runs every experiment with default parameters, in order.
func All() []*Table {
	return []*Table{
		E1Figure2(),
		E2Architecture(),
		E3Scalability(nil),
		E4Maintenance(nil),
		E5Algebra(nil),
		E6Pattern(nil),
		E7SKAT(),
		E8Query(nil),
		E9Inference(nil),
		E10Incremental(nil),
		E11ParallelQuery(nil),
		E14ServingThroughput(nil),
		E15BoundedMemory(nil),
		E16ColdStart(nil),
		E17OverloadServing(nil),
		E18ObservabilityOverhead(nil),
	}
}

// ByID runs one experiment by id ("E1".."E18"; E12, E13 and E19 are
// retired — they compared against executors that no longer exist); ok
// is false for unknown ids.
func ByID(id string) (*Table, bool) {
	switch strings.ToUpper(id) {
	case "E1":
		return E1Figure2(), true
	case "E2":
		return E2Architecture(), true
	case "E3":
		return E3Scalability(nil), true
	case "E4":
		return E4Maintenance(nil), true
	case "E5":
		return E5Algebra(nil), true
	case "E6":
		return E6Pattern(nil), true
	case "E7":
		return E7SKAT(), true
	case "E8":
		return E8Query(nil), true
	case "E9":
		return E9Inference(nil), true
	case "E10":
		return E10Incremental(nil), true
	case "E11":
		return E11ParallelQuery(nil), true
	case "E14":
		return E14ServingThroughput(nil), true
	case "E15":
		return E15BoundedMemory(nil), true
	case "E16":
		return E16ColdStart(nil), true
	case "E17":
		return E17OverloadServing(nil), true
	case "E18":
		return E18ObservabilityOverhead(nil), true
	default:
		return nil, false
	}
}
