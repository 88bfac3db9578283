package core

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/fpm"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/outcome"
	"repro/internal/stats"
)

// ItemShapley returns, for each item of the itemset, its Shapley value
// with respect to the itemset's divergence: the item's average marginal
// contribution Δ(J ∪ {α}) − Δ(J) over all sub-itemsets J, with Δ(∅) = 0.
// This is the per-itemset item attribution of DivExplorer (§5 of the
// SIGMOD'21 paper), inherited by H-DivExplorer: it explains *which
// constraints drive* a subgroup's divergence. The values sum to the
// itemset's divergence.
//
// The computation enumerates all 2^|I| sub-itemsets, evaluating each
// divergence directly on the table; itemsets in practice have ≤ 8 items.
func ItemShapley(t *dataset.Table, o *outcome.Outcome, itemset hierarchy.Itemset) ([]float64, error) {
	n := len(itemset)
	if n == 0 {
		return nil, fmt.Errorf("core: empty itemset")
	}
	if n > 20 {
		return nil, fmt.Errorf("core: itemset too long for exact Shapley (%d items)", n)
	}
	if !itemset.Valid() {
		return nil, fmt.Errorf("core: itemset constrains an attribute twice")
	}
	// Divergence of every subset, indexed by bitmask.
	div := make([]float64, 1<<n)
	for mask := 1; mask < 1<<n; mask++ {
		var sub hierarchy.Itemset
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sub = append(sub, itemset[i])
			}
		}
		d := o.DivergenceOf(sub.Rows(t))
		if math.IsNaN(d) {
			d = 0 // empty subgroup contributes nothing
		}
		div[mask] = d
	}
	// Precompute |J|!(n−|J|−1)!/n! by subset size.
	weight := make([]float64, n)
	for k := 0; k < n; k++ {
		weight[k] = 1 / (float64(n) * binom(n-1, k))
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		bit := 1 << i
		for mask := 0; mask < 1<<n; mask++ {
			if mask&bit != 0 {
				continue
			}
			k := popcount(mask)
			out[i] += weight[k] * (div[mask|bit] - div[mask])
		}
	}
	return out, nil
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	r := 1.0
	for i := 1; i <= k; i++ {
		r = r * float64(n-k+i) / float64(i)
	}
	return r
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

// PValue returns the two-sided p-value of the subgroup's divergence under
// the large-sample normal approximation of its Welch t-statistic.
func (s *Subgroup) PValue() float64 {
	return stats.TwoSidedP(s.T)
}

// Significant screens the report through Benjamini–Hochberg FDR control
// at level alpha and returns the significant subgroups, preserving the
// report's |divergence| order. Exploring thousands of subgroups is a
// multiple-testing exercise; use this instead of a raw t cutoff when the
// anomalies must survive statistical scrutiny.
func (r *Report) Significant(alpha float64) []Subgroup {
	ps := make([]float64, len(r.Subgroups))
	for i := range r.Subgroups {
		ps[i] = r.Subgroups[i].PValue()
	}
	keep := stats.BenjaminiHochberg(ps, alpha)
	var out []Subgroup
	for i, k := range keep {
		if k {
			out = append(out, r.Subgroups[i])
		}
	}
	return out
}

// subgroupJSON is the serialization shape of one subgroup.
type subgroupJSON struct {
	Itemset    string   `json:"itemset"`
	Items      []string `json:"items"`
	Support    float64  `json:"support"`
	Count      int      `json:"count"`
	Statistic  float64  `json:"statistic"`
	Divergence float64  `json:"divergence"`
	T          float64  `json:"t"`
	PValue     float64  `json:"p_value"`
}

// reportJSON is the serialization shape of a report.
type reportJSON struct {
	Global    float64         `json:"global"`
	NumRows   int             `json:"num_rows"`
	NumItems  int             `json:"num_items"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Mining    fpm.MiningStats `json:"mining"`
	// Truncated/Exhausted surface budget-cut runs; omitted (keeping the
	// serialization of unbudgeted runs unchanged) when the lattice was
	// fully explored.
	Truncated bool           `json:"truncated,omitempty"`
	Exhausted string         `json:"exhausted,omitempty"`
	Subgroups []subgroupJSON `json:"subgroups"`
	Trace     *obs.Trace     `json:"trace,omitempty"`
	Explain   *obs.Explain   `json:"explain,omitempty"`
}

// MarshalJSON serializes the report: global statistic, dataset and
// universe sizes, mining time and counters, every subgroup (itemset,
// support, divergence, t, p-value), and — when the exploration ran with a
// tracer — the full trace snapshot and, when requested, the explain
// profile.
func (r *Report) MarshalJSON() ([]byte, error) {
	out := reportJSON{
		Global:    r.Global,
		NumRows:   r.NumRows,
		NumItems:  r.NumItems,
		ElapsedMS: float64(r.Elapsed.Nanoseconds()) / 1e6,
		Mining:    r.Mining,
		Truncated: r.Truncated,
		Exhausted: r.Exhausted,
		Trace:     r.Trace,
		Explain:   r.Explain,
	}
	for i := range r.Subgroups {
		sg := &r.Subgroups[i]
		items := make([]string, len(sg.Itemset))
		for j, it := range sg.Itemset {
			items[j] = it.String()
		}
		sort.Strings(items)
		out.Subgroups = append(out.Subgroups, subgroupJSON{
			Itemset:    sg.Itemset.String(),
			Items:      items,
			Support:    sg.Support,
			Count:      sg.Count,
			Statistic:  sg.Statistic,
			Divergence: sg.Divergence,
			T:          sg.T,
			PValue:     sg.PValue(),
		})
	}
	return json.Marshal(out)
}

// WriteCSV writes the subgroups as CSV rows (itemset, support, count,
// statistic, divergence, t, p_value) with a header.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"itemset", "support", "count", "statistic", "divergence", "t", "p_value"}); err != nil {
		return err
	}
	for i := range r.Subgroups {
		sg := &r.Subgroups[i]
		rec := []string{
			sg.Itemset.String(),
			strconv.FormatFloat(sg.Support, 'g', -1, 64),
			strconv.Itoa(sg.Count),
			strconv.FormatFloat(sg.Statistic, 'g', -1, 64),
			strconv.FormatFloat(sg.Divergence, 'g', -1, 64),
			strconv.FormatFloat(sg.T, 'g', -1, 64),
			strconv.FormatFloat(sg.PValue(), 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// EvaluateItemsets recomputes support, statistic, divergence and t-value
// for a fixed list of patterns on a table — no mining. This is the
// monitoring path: explore once, persist the winning patterns (and the
// hierarchies via the hierarchy JSON codec), then re-evaluate the same
// subgroups on every new data snapshot to track drift. Patterns whose
// attributes are missing from the table produce an error; empty subgroups
// are returned with zero support and NaN statistics.
func EvaluateItemsets(t *dataset.Table, o *outcome.Outcome, itemsets []hierarchy.Itemset) ([]Subgroup, error) {
	if o.Len() != t.NumRows() {
		return nil, fmt.Errorf("core: outcome has %d rows, table has %d", o.Len(), t.NumRows())
	}
	out := make([]Subgroup, 0, len(itemsets))
	for i, its := range itemsets {
		if !its.Valid() {
			return nil, fmt.Errorf("core: itemset %d constrains an attribute twice", i)
		}
		bound := make(hierarchy.Itemset, len(its))
		for j, it := range its {
			if !t.HasColumn(it.Attr) {
				return nil, fmt.Errorf("core: itemset %d references missing attribute %q", i, it.Attr)
			}
			// Categorical items are re-mapped onto t's dictionary by level
			// name, so patterns mined on one snapshot evaluate correctly on
			// another even when dictionaries assign different codes.
			bound[j] = it.Rebind(t)
		}
		rows := bound.Rows(t)
		m := o.MomentsOf(rows)
		out = append(out, Subgroup{
			Itemset:    bound,
			Count:      rows.Count(),
			Support:    float64(rows.Count()) / float64(t.NumRows()),
			Statistic:  m.Mean(),
			Divergence: o.DivergenceFromMoments(m),
			T:          o.TValueFromMoments(m),
		})
	}
	return out, nil
}
