package dataset

import (
	"math"
	"sync"
)

// rowOrder lazily holds one continuous column's sorted row order for one
// table (see Table.SortedRows).
type rowOrder struct {
	once sync.Once
	rows []int32
}

// SortedRows returns the rows of a continuous column whose value is not
// NaN, in ascending (value, row index) order: a total order, so the result
// is unique and a merged order equals a fresh sort element for element.
// It is the split order of the tree discretizer. The order is computed on
// first use and shared by every later caller; the slice must not be
// modified. Safe for concurrent use.
func (t *Table) SortedRows(name string) []int32 {
	i := t.mustIndex(name)
	vals := t.Floats(name)
	o := &t.orders[i]
	o.once.Do(func() {
		if t.versioned != nil {
			o.rows = t.versioned.sortedRows(i, vals)
		} else {
			o.rows = sortRows(vals, 0)
		}
	})
	return o.rows
}

// CodeRows is a categorical column's rows grouped by level code.
type CodeRows struct {
	start []int32 // the rows of code c are rows[start[c]:start[c+1]]
	rows  []int32
}

// GroupCodes groups a categorical column's rows by level code in one
// counting-sort pass over the rows, ascending within each code. Unlike
// SortedRows the grouping is not kept on the table: the caller holds it
// only as long as it needs it. The grouping reuses buf's storage where it
// is large enough, so a caller grouping column after column holds one
// grouping at a time; buf's rows are invalid afterwards.
func (t *Table) GroupCodes(name string, buf CodeRows) CodeRows {
	codes := t.Codes(name)
	start := grow(buf.start, len(t.Levels(name))+1)
	clear(start)
	for _, c := range codes {
		start[c+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	// Placing a row advances its code's start, which ends at the next
	// code's start; shifting by one code restores the starts.
	rows := grow(buf.rows, len(codes))
	for i, c := range codes {
		rows[start[c]] = int32(i)
		start[c]++
	}
	copy(start[1:], start)
	start[0] = 0
	return CodeRows{start: start, rows: rows}
}

// grow returns s resliced to length n, or a new slice when s cannot hold
// n elements.
func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Rows returns the rows of level code c in ascending order; none when c
// is not a code of the column's dictionary. The slice must not be
// modified.
func (g CodeRows) Rows(c int) []int32 {
	if c < 0 || c >= len(g.start)-1 {
		return nil
	}
	return g.rows[g.start[c]:g.start[c+1]]
}

// sortRows returns the non-NaN rows at or after from in (value, row)
// order: a stable least-significant-digit radix sort, one byte per pass,
// of the rows in ascending order keyed by an order-preserving integer
// image of their values, so equal values keep ascending rows. −0 is keyed
// as +0, the value it equals.
func sortRows(vals []float64, from int) []int32 {
	type keyed struct {
		key uint64
		row int32
	}
	a := make([]keyed, 0, len(vals)-from)
	for i := from; i < len(vals); i++ {
		v := vals[i]
		if math.IsNaN(v) {
			continue
		}
		if v == 0 {
			v = 0
		}
		// Negative values flip every bit, the others only the sign bit.
		k := math.Float64bits(v)
		k ^= uint64(int64(k)>>63) | 1<<63
		a = append(a, keyed{k, int32(i)})
	}
	b := make([]keyed, len(a))
	for shift := 0; shift < 64 && len(a) > 1; shift += 8 {
		var start [257]int
		for _, e := range a {
			start[int(byte(e.key>>shift))+1]++
		}
		if start[int(byte(a[0].key>>shift))+1] == len(a) {
			continue // every key has the same digit here
		}
		for d := 1; d < len(start); d++ {
			start[d] += start[d-1]
		}
		for _, e := range a {
			d := byte(e.key >> shift)
			b[start[d]] = e
			start[d]++
		}
		a, b = b, a
	}
	rows := make([]int32, len(a))
	for i, e := range a {
		rows[i] = e.row
	}
	return rows
}

// mergeRows merges two (value, row)-sorted row lists where every row of b
// is above every row of a, so equal values keep a's rows first.
func mergeRows(vals []float64, a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if vals[b[0]] < vals[a[0]] {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}
