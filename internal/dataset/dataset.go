// Package dataset implements the columnar table substrate on which
// H-DivExplorer operates: a typed, immutable-after-build table with
// continuous (float64) and categorical (dictionary-encoded string) columns,
// plus a CSV codec.
//
// The paper's pipeline consumes a dataset D with attributes A, a subset of
// which are continuous; this package is the Go equivalent of the pandas
// DataFrame the reference implementation uses.
package dataset

import (
	"fmt"
	"strconv"
)

// Kind distinguishes continuous from categorical attributes.
type Kind int

const (
	// Continuous attributes have domain ℝ and are represented as float64.
	Continuous Kind = iota
	// Categorical attributes have a finite domain of string levels,
	// dictionary-encoded as small integer codes.
	Categorical
)

// String returns "continuous" or "categorical".
func (k Kind) String() string {
	switch k {
	case Continuous:
		return "continuous"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Field describes one attribute of a table.
type Field struct {
	Name string
	Kind Kind
}

// column is the internal storage for one attribute.
type column struct {
	field  Field
	floats []float64 // set iff Kind == Continuous
	codes  []int     // set iff Kind == Categorical
	levels []string  // dictionary for codes
}

// Table is a columnar dataset. Build one with NewBuilder or ReadCSV.
// A Table is safe for concurrent readers once built.
type Table struct {
	cols   []column
	byName map[string]int
	nrows  int
	orders []rowOrder // per column, filled on first SortedRows
	// versioned is set on a Versioned snapshot: its SortedRows merge into
	// the newest order the Versioned holds instead of sorting every row.
	versioned *Versioned
}

// Builder incrementally assembles a Table column by column. All columns must
// have the same length; the first column added fixes the row count.
type Builder struct {
	t   Table
	err error
}

// NewBuilder returns an empty table builder.
func NewBuilder() *Builder {
	return &Builder{t: Table{byName: map[string]int{}}}
}

// AddFloat adds a continuous column. The slice is retained, not copied.
func (b *Builder) AddFloat(name string, vals []float64) *Builder {
	if b.check(name, len(vals)) {
		b.t.cols = append(b.t.cols, column{field: Field{name, Continuous}, floats: vals})
		b.t.byName[name] = len(b.t.cols) - 1
	}
	return b
}

// AddCategorical adds a categorical column from string values, building the
// dictionary of levels in order of first appearance.
func (b *Builder) AddCategorical(name string, vals []string) *Builder {
	if !b.check(name, len(vals)) {
		return b
	}
	codes := make([]int, len(vals))
	var levels []string
	index := map[string]int{}
	for i, v := range vals {
		c, ok := index[v]
		if !ok {
			c = len(levels)
			levels = append(levels, v)
			index[v] = c
		}
		codes[i] = c
	}
	b.t.cols = append(b.t.cols, column{field: Field{name, Categorical}, codes: codes, levels: levels})
	b.t.byName[name] = len(b.t.cols) - 1
	return b
}

// AddCategoricalCodes adds a categorical column from pre-encoded codes and an
// explicit level dictionary. Codes must index into levels.
func (b *Builder) AddCategoricalCodes(name string, codes []int, levels []string) *Builder {
	if !b.check(name, len(codes)) {
		return b
	}
	for i, c := range codes {
		if c < 0 || c >= len(levels) {
			b.err = fmt.Errorf("dataset: column %q: code %d at row %d out of range [0,%d)", name, c, i, len(levels))
			return b
		}
	}
	b.t.cols = append(b.t.cols, column{field: Field{name, Categorical}, codes: codes, levels: levels})
	b.t.byName[name] = len(b.t.cols) - 1
	return b
}

func (b *Builder) check(name string, n int) bool {
	if b.err != nil {
		return false
	}
	if _, dup := b.t.byName[name]; dup {
		b.err = fmt.Errorf("dataset: duplicate column %q", name)
		return false
	}
	if len(b.t.cols) == 0 {
		b.t.nrows = n
	} else if n != b.t.nrows {
		b.err = fmt.Errorf("dataset: column %q has %d rows, want %d", name, n, b.t.nrows)
		return false
	}
	return true
}

// Build finalizes the table or reports the first construction error.
func (b *Builder) Build() (*Table, error) {
	if b.err != nil {
		return nil, b.err
	}
	t := b.t
	t.orders = make([]rowOrder, len(t.cols))
	return &t, nil
}

// MustBuild is Build that panics on error, for tests and generators.
func (b *Builder) MustBuild() *Table {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// NumRows returns the number of instances in the table.
func (t *Table) NumRows() int { return t.nrows }

// NumCols returns the number of attributes.
func (t *Table) NumCols() int { return len(t.cols) }

// Fields returns the schema in column order. The slice is freshly allocated.
func (t *Table) Fields() []Field {
	out := make([]Field, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.field
	}
	return out
}

// Names returns the attribute names in column order.
func (t *Table) Names() []string {
	out := make([]string, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.field.Name
	}
	return out
}

// HasColumn reports whether the table has a column with the given name.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.byName[name]
	return ok
}

// KindOf returns the kind of the named column; it panics if absent.
func (t *Table) KindOf(name string) Kind {
	return t.cols[t.mustIndex(name)].field.Kind
}

// Floats returns the value slice of a continuous column. The returned slice
// is shared with the table and must not be modified.
func (t *Table) Floats(name string) []float64 {
	c := t.cols[t.mustIndex(name)]
	if c.field.Kind != Continuous {
		panic(fmt.Sprintf("dataset: column %q is %v, not continuous", name, c.field.Kind))
	}
	return c.floats
}

// Codes returns the code slice of a categorical column. The returned slice
// is shared with the table and must not be modified.
func (t *Table) Codes(name string) []int {
	c := t.cols[t.mustIndex(name)]
	if c.field.Kind != Categorical {
		panic(fmt.Sprintf("dataset: column %q is %v, not categorical", name, c.field.Kind))
	}
	return c.codes
}

// Levels returns the dictionary of a categorical column, indexed by code.
// The returned slice is shared with the table and must not be modified.
func (t *Table) Levels(name string) []string {
	c := t.cols[t.mustIndex(name)]
	if c.field.Kind != Categorical {
		panic(fmt.Sprintf("dataset: column %q is %v, not categorical", name, c.field.Kind))
	}
	return c.levels
}

// LevelCode returns the code for a level of a categorical column, or -1 if
// the level does not occur.
func (t *Table) LevelCode(name, level string) int {
	for i, l := range t.Levels(name) {
		if l == level {
			return i
		}
	}
	return -1
}

// ValueString renders the value at (row, column name) for display.
func (t *Table) ValueString(row int, name string) string {
	c := t.cols[t.mustIndex(name)]
	if row < 0 || row >= t.nrows {
		panic(fmt.Sprintf("dataset: row %d out of range [0,%d)", row, t.nrows))
	}
	if c.field.Kind == Continuous {
		return strconv.FormatFloat(c.floats[row], 'g', -1, 64)
	}
	return c.levels[c.codes[row]]
}

// Select returns a new table containing only the named columns, sharing
// storage with t.
func (t *Table) Select(names ...string) (*Table, error) {
	b := NewBuilder()
	for _, n := range names {
		i, ok := t.byName[n]
		if !ok {
			return nil, fmt.Errorf("dataset: no column %q", n)
		}
		c := t.cols[i]
		if c.field.Kind == Continuous {
			b.AddFloat(n, c.floats)
		} else {
			b.AddCategoricalCodes(n, c.codes, c.levels)
		}
	}
	return b.Build()
}

// Drop returns a new table without the named columns, sharing storage.
func (t *Table) Drop(names ...string) (*Table, error) {
	drop := map[string]bool{}
	for _, n := range names {
		if !t.HasColumn(n) {
			return nil, fmt.Errorf("dataset: no column %q", n)
		}
		drop[n] = true
	}
	var keep []string
	for _, c := range t.cols {
		if !drop[c.field.Name] {
			keep = append(keep, c.field.Name)
		}
	}
	return t.Select(keep...)
}

// FilterRows returns a new table with only the given rows (in the given
// order). Row storage is copied; dictionaries are shared.
func (t *Table) FilterRows(rows []int) *Table {
	b := NewBuilder()
	for _, c := range t.cols {
		if c.field.Kind == Continuous {
			vals := make([]float64, len(rows))
			for i, r := range rows {
				vals[i] = c.floats[r]
			}
			b.AddFloat(c.field.Name, vals)
		} else {
			codes := make([]int, len(rows))
			for i, r := range rows {
				codes[i] = c.codes[r]
			}
			b.AddCategoricalCodes(c.field.Name, codes, c.levels)
		}
	}
	return b.MustBuild()
}

// CountKinds returns the number of continuous and categorical attributes,
// the |A|num and |A|cat of the paper's Table II.
func (t *Table) CountKinds() (numContinuous, numCategorical int) {
	for _, c := range t.cols {
		if c.field.Kind == Continuous {
			numContinuous++
		} else {
			numCategorical++
		}
	}
	return
}

func (t *Table) mustIndex(name string) int {
	i, ok := t.byName[name]
	if !ok {
		panic(fmt.Sprintf("dataset: no column %q", name))
	}
	return i
}
