package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// CSVOptions controls CSV parsing.
type CSVOptions struct {
	// Comma is the field delimiter; 0 means ','.
	Comma rune
	// ForceCategorical lists columns to load as categorical even when every
	// value parses as a number (e.g. zip codes).
	ForceCategorical []string
	// MissingTokens are treated as missing values. Missing continuous values
	// become NaN; missing categorical values become the level "?".
	// Defaults to {"", "?", "NA"} when nil.
	MissingTokens []string
	// Tracer, when non-nil, receives parse/inference spans and row/column
	// counters for the read.
	Tracer *obs.Tracer
}

func (o CSVOptions) missing() map[string]bool {
	toks := o.MissingTokens
	if toks == nil {
		toks = []string{"", "?", "NA"}
	}
	m := map[string]bool{}
	for _, t := range toks {
		m[t] = true
	}
	return m
}

// ReadCSV parses a headed CSV stream into a Table, inferring each column's
// kind: a column where every non-missing value parses as a float becomes
// continuous, otherwise categorical.
func ReadCSV(r io.Reader, opts CSVOptions) (*Table, error) {
	span := opts.Tracer.Start(obs.SpanReadCSV)
	defer span.End()

	if err := faultinject.Hit(faultinject.SiteCSVLoad); err != nil {
		return nil, err
	}
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.TrimLeadingSpace = true
	parseSpan := span.Start(obs.SpanCSVParse)
	records, err := cr.ReadAll()
	parseSpan.End()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("dataset: empty CSV (no header)")
	}
	header := records[0]
	rows := records[1:]
	missing := opts.missing()
	force := map[string]bool{}
	for _, n := range opts.ForceCategorical {
		force[n] = true
	}

	colSpan := span.Start(obs.SpanCSVColumns)
	defer colSpan.End()
	continuous, categorical := 0, 0
	b := NewBuilder()
	for j, name := range header {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("dataset: empty column name at position %d", j+1)
		}
		raw := make([]string, len(rows))
		for i, rec := range rows {
			if j >= len(rec) {
				return nil, fmt.Errorf("dataset: row %d has %d fields, want %d", i+1, len(rec), len(header))
			}
			raw[i] = strings.TrimSpace(rec[j])
		}
		if !force[name] && allNumeric(raw, missing) {
			vals := make([]float64, len(raw))
			for i, s := range raw {
				if missing[s] {
					vals[i] = math.NaN()
					continue
				}
				v, err := strconv.ParseFloat(s, 64)
				if err != nil {
					return nil, fmt.Errorf("dataset: column %q row %d: %w", name, i+1, err)
				}
				// ParseFloat accepts "Inf" and "infinity"; one such cell
				// would make every mean, Δ and t over the column Inf or NaN.
				// A literal "NaN" stays: NaN is how a missing value is stored.
				if math.IsInf(v, 0) {
					return nil, fmt.Errorf("dataset: column %q row %d: non-finite value %q", name, i+1, s)
				}
				vals[i] = v
			}
			b.AddFloat(name, vals)
			continuous++
		} else {
			for i, s := range raw {
				if missing[s] {
					raw[i] = "?"
				}
			}
			b.AddCategorical(name, raw)
			categorical++
		}
	}
	if tr := opts.Tracer; tr != nil {
		tr.Counter(obs.CtrRows).Add(int64(len(rows)))
		tr.Counter(obs.CtrCols).Add(int64(len(header)))
		tr.Counter(obs.CtrColsContinuous).Add(int64(continuous))
		tr.Counter(obs.CtrColsCategorical).Add(int64(categorical))
	}
	return b.Build()
}

// ReadCSVFile opens and parses a CSV file.
func ReadCSVFile(path string, opts CSVOptions) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f, opts)
}

func allNumeric(vals []string, missing map[string]bool) bool {
	seen := false
	for _, s := range vals {
		if missing[s] {
			continue
		}
		if _, err := strconv.ParseFloat(s, 64); err != nil {
			return false
		}
		seen = true
	}
	return seen // an all-missing column is categorical
}

// WriteCSV writes the table as a headed CSV to w.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Names()); err != nil {
		return err
	}
	rec := make([]string, t.NumCols())
	names := t.Names()
	for i := 0; i < t.NumRows(); i++ {
		for j, n := range names {
			rec[j] = t.ValueString(i, n)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the table to a file path.
func (t *Table) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}
