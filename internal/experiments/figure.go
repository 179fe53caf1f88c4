package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Point is one measured value on a series: an x-axis label, a mean, and a
// standard deviation (0 for deterministic algorithms). Calls, when nonzero,
// is the mean number of charged what-if calls behind the measurement — the
// spend side of improvement-at-equal-spend comparisons (bound interception
// lowers Calls at a given budget without lowering Mean).
type Point struct {
	X     string
	Mean  float64
	Std   float64
	Calls float64
}

// Series is one plotted line/bar group.
type Series struct {
	Label  string
	Points []Point
}

// Panel is one chart: several series over a shared x-axis.
type Panel struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Figure is a reproduced table or figure: one or more panels plus metadata.
type Figure struct {
	ID      string
	Caption string
	Panels  []Panel
}

// WriteText renders the figure as aligned text tables, one per panel —
// the rows/series the paper plots.
func (f *Figure) WriteText(w io.Writer) {
	if f.ID != "" {
		fmt.Fprintf(w, "=== %s: %s ===\n", f.ID, f.Caption)
	} else {
		fmt.Fprintf(w, "=== %s ===\n", f.Caption)
	}
	for _, p := range f.Panels {
		fmt.Fprintf(w, "\n[%s]  (%s vs %s)\n", p.Title, p.YLabel, p.XLabel)
		if len(p.Series) == 0 {
			continue
		}
		// Header: x labels from the longest series.
		longest := 0
		for i, s := range p.Series {
			if len(s.Points) > len(p.Series[longest].Points) {
				longest = i
			}
		}
		labelW := 10
		for _, s := range p.Series {
			if len(s.Label) > labelW {
				labelW = len(s.Label)
			}
		}
		fmt.Fprintf(w, "%-*s", labelW+2, "")
		for _, pt := range p.Series[longest].Points {
			fmt.Fprintf(w, "%14s", pt.X)
		}
		fmt.Fprintln(w)
		for _, s := range p.Series {
			fmt.Fprintf(w, "%-*s", labelW+2, s.Label)
			for _, pt := range s.Points {
				if pt.Std > 0 {
					fmt.Fprintf(w, "%9.1f±%-4.1f", pt.Mean, pt.Std)
				} else {
					fmt.Fprintf(w, "%14.1f", pt.Mean)
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the figure as CSV rows:
// figure,panel,series,x,mean,std,calls. header writes that column header
// first; a file holding several figures takes it before the first only.
func (f *Figure) WriteCSV(w io.Writer, header bool) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if header {
		if err := cw.Write([]string{"figure", "panel", "series", "x", "mean", "std", "calls"}); err != nil {
			return err
		}
	}
	for _, p := range f.Panels {
		for _, s := range p.Series {
			for _, pt := range s.Points {
				rec := []string{
					f.ID, p.Title, s.Label, pt.X,
					strconv.FormatFloat(pt.Mean, 'f', 3, 64),
					strconv.FormatFloat(pt.Std, 'f', 3, 64),
					strconv.FormatFloat(pt.Calls, 'f', 1, 64),
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// String renders the figure via WriteText.
func (f *Figure) String() string {
	var b strings.Builder
	f.WriteText(&b)
	return b.String()
}
