package core

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/dataset"
	"repro/internal/outcome"
)

// ParseStats normalizes a statistic list: every name lower-cased and
// trimmed, blanks dropped. A name given twice and a list naming no
// statistic are errors. ParseStats, StatInputs, BuildBundle and
// WriteReports are the statistic-list path the CLI and the HTTP server
// share, so both front ends produce identical explorations for the same
// parameters.
func ParseStats(raw []string) ([]string, error) {
	seen := map[string]bool{}
	var stats []string
	for _, st := range raw {
		st = strings.ToLower(strings.TrimSpace(st))
		if st == "" {
			continue
		}
		if seen[st] {
			return nil, fmt.Errorf("statistic %q named twice", st)
		}
		seen[st] = true
		stats = append(stats, st)
	}
	if len(stats) == 0 {
		return nil, fmt.Errorf("at least one statistic is required")
	}
	return stats, nil
}

// rateStats builds each rate statistic, by name, from actual and
// predicted boolean columns.
var rateStats = map[string]func(actual, pred []bool) *outcome.Outcome{
	"fpr":      outcome.FalsePositiveRate,
	"fnr":      outcome.FalseNegativeRate,
	"error":    outcome.ErrorRate,
	"accuracy": outcome.Accuracy,
}

// statInputs returns the label columns stat is computed from: the actual
// and predicted columns of a rate statistic, the target column of
// "numeric". An unknown statistic or an unnamed column it needs is an
// error.
func statInputs(stat, actualCol, predCol, targetCol string) ([]string, error) {
	if stat == "numeric" {
		if targetCol == "" {
			return nil, fmt.Errorf("statistic numeric requires a target column")
		}
		return []string{targetCol}, nil
	}
	if rateStats[stat] == nil {
		return nil, fmt.Errorf("unknown statistic %q", stat)
	}
	if actualCol == "" || predCol == "" {
		return nil, fmt.Errorf("statistic %s requires actual and predicted columns", stat)
	}
	return []string{actualCol, predCol}, nil
}

// StatInputs returns the union of the label columns the statistics are
// computed from, in first-seen order. A statistic's inputs are never
// attributes to explore, so this is the exclusion set of every
// exploration of the list.
func StatInputs(stats []string, actualCol, predCol, targetCol string) ([]string, error) {
	if len(stats) == 0 {
		return nil, fmt.Errorf("at least one statistic is required")
	}
	var cols []string
	for _, stat := range stats {
		in, err := statInputs(strings.ToLower(stat), actualCol, predCol, targetCol)
		if err != nil {
			return nil, err
		}
		for _, c := range in {
			if !slices.Contains(cols, c) {
				cols = append(cols, c)
			}
		}
	}
	return cols, nil
}

// BuildBundle builds the outcome bundle of the statistics over tab, one
// outcome per statistic in order. A non-nil primary serves as the first
// statistic's outcome instead of a new one, so a caller that holds it
// already (a cached universe's outcome) keeps the bundle's primary
// identical to it. The exploration's exclusion set is StatInputs'.
func BuildBundle(tab *dataset.Table, stats []string, primary *outcome.Outcome, actualCol, predCol, targetCol string) (*outcome.Bundle, error) {
	if len(stats) == 0 {
		return nil, fmt.Errorf("at least one statistic is required")
	}
	outs := make([]*outcome.Outcome, len(stats))
	outs[0] = primary
	for i, stat := range stats {
		if outs[i] == nil {
			var err error
			if outs[i], _, err = BuildStatistic(tab, stat, actualCol, predCol, targetCol); err != nil {
				return nil, err
			}
		}
	}
	return outcome.NewBundle(outs...)
}

// BuildStatistic assembles the outcome function named by stat from a
// table's label columns, returning the outcome plus the label columns to
// exclude from the exploration itself. Recognized statistics are "fpr",
// "fnr", "error", "accuracy" (requiring actual and predicted boolean
// columns) and "numeric" (requiring a numeric target column).
func BuildStatistic(tab *dataset.Table, stat, actualCol, predCol, targetCol string) (*outcome.Outcome, []string, error) {
	stat = strings.ToLower(stat)
	exclude, err := statInputs(stat, actualCol, predCol, targetCol)
	if err != nil {
		return nil, nil, err
	}
	if stat == "numeric" {
		if !tab.HasColumn(targetCol) {
			return nil, nil, fmt.Errorf("no column %q", targetCol)
		}
		return outcome.Numeric(targetCol, tab.Floats(targetCol)), exclude, nil
	}
	actual, err := BoolColumn(tab, actualCol)
	if err != nil {
		return nil, nil, err
	}
	pred, err := BoolColumn(tab, predCol)
	if err != nil {
		return nil, nil, err
	}
	return rateStats[stat](actual, pred), exclude, nil
}

// BoolColumn reads a column as booleans: numeric columns treat nonzero as
// true; categorical columns accept true/false, yes/no, 1/0, t/f, y/n
// (case-insensitive).
func BoolColumn(tab *dataset.Table, name string) ([]bool, error) {
	if !tab.HasColumn(name) {
		return nil, fmt.Errorf("no column %q", name)
	}
	n := tab.NumRows()
	out := make([]bool, n)
	if tab.KindOf(name) == dataset.Continuous {
		for i, v := range tab.Floats(name) {
			out[i] = v != 0
		}
		return out, nil
	}
	codes := tab.Codes(name)
	levels := tab.Levels(name)
	truth := make([]bool, len(levels))
	for c, l := range levels {
		switch strings.ToLower(strings.TrimSpace(l)) {
		case "true", "yes", "1", "t", "y":
			truth[c] = true
		case "false", "no", "0", "f", "n":
			truth[c] = false
		default:
			return nil, fmt.Errorf("column %q: level %q is not boolean", name, l)
		}
	}
	for i, c := range codes {
		out[i] = truth[c]
	}
	return out, nil
}

// WriteReports renders one report per statistic, reps[i] for stats[i],
// in format "json" (or "") or "csv", any case. Labelled output names each
// report's statistic: csv precedes each report's block with a comment
// line, "#", a space and "stat=<name>", and json is an array of
// {stat, report} objects.
// Unlabelled output is the first report alone, as one json object or one
// csv block. JSON is indented with two spaces and ends in a newline.
func WriteReports(w io.Writer, format string, stats []string, reps []*Report, labelled bool) error {
	if !labelled {
		reps = reps[:1]
	}
	switch strings.ToLower(format) {
	case "", "json":
		var v any = reps[0]
		if labelled {
			type labelledReport struct {
				Stat   string  `json:"stat"`
				Report *Report `json:"report"`
			}
			arr := make([]labelledReport, len(reps))
			for i, rep := range reps {
				arr[i] = labelledReport{Stat: stats[i], Report: rep}
			}
			v = arr
		}
		raw, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		_, err = w.Write(append(raw, '\n'))
		return err
	case "csv":
		for i, rep := range reps {
			if labelled {
				fmt.Fprintf(w, "# stat=%s\n", stats[i]) // a failed write fails WriteCSV too
			}
			if err := rep.WriteCSV(w); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}
