package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/hierarchy"
)

// TopKDiverse greedily selects up to k subgroups in |divergence| order,
// skipping any whose row set overlaps a previously selected subgroup with
// Jaccard similarity above maxJaccard. Exploration reports are dominated
// by near-duplicates of the same anomaly (every sub-interval and superset
// of the top pattern); diverse selection surfaces *distinct* anomalous
// regions instead.
func (r *Report) TopKDiverse(t *dataset.Table, k int, maxJaccard float64) ([]Subgroup, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive")
	}
	if maxJaccard < 0 || maxJaccard >= 1 {
		return nil, fmt.Errorf("core: maxJaccard must be in [0, 1)")
	}
	var out []Subgroup
	var rows []*bitvec.Vector
	for i := range r.Subgroups {
		if len(out) == k {
			break
		}
		sg := &r.Subgroups[i]
		cand := sg.Itemset.Rows(t)
		overlaps := false
		for _, prev := range rows {
			if jaccard(cand, prev) > maxJaccard {
				overlaps = true
				break
			}
		}
		if overlaps {
			continue
		}
		out = append(out, *sg)
		rows = append(rows, cand)
	}
	return out, nil
}

// jaccard returns |a∩b| / |a∪b|, defining the similarity of two empty sets
// as 0.
func jaccard(a, b *bitvec.Vector) float64 {
	inter := a.AndCount(b)
	union := a.Count() + b.Count() - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// DriftEntry is one pattern's change between two evaluations.
type DriftEntry struct {
	Itemset hierarchy.Itemset
	// Before and After are the subgroup's states in the two reports.
	Before, After Subgroup
	// DivergenceShift is After.Divergence − Before.Divergence.
	DivergenceShift float64
	// SupportShift is After.Support − Before.Support.
	SupportShift float64
}

// Drift pairs two evaluations of the same patterns (e.g. two data
// snapshots scored via EvaluateItemsets) and returns per-pattern shifts,
// ordered by |divergence shift| descending — the monitoring view of which
// subgroups' behaviour moved most between snapshots. The inputs must be
// parallel (same patterns in the same order), as produced by calling
// EvaluateItemsets twice with the same itemset list.
func Drift(before, after []Subgroup) ([]DriftEntry, error) {
	if len(before) != len(after) {
		return nil, fmt.Errorf("core: drift inputs have %d vs %d subgroups", len(before), len(after))
	}
	out := make([]DriftEntry, len(before))
	for i := range before {
		if before[i].Itemset.String() != after[i].Itemset.String() {
			return nil, fmt.Errorf("core: drift inputs disagree at %d: %q vs %q",
				i, before[i].Itemset, after[i].Itemset)
		}
		out[i] = DriftEntry{
			Itemset:         before[i].Itemset,
			Before:          before[i],
			After:           after[i],
			DivergenceShift: after[i].Divergence - before[i].Divergence,
			SupportShift:    after[i].Support - before[i].Support,
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		return math.Abs(out[a].DivergenceShift) > math.Abs(out[b].DivergenceShift)
	})
	return out, nil
}
