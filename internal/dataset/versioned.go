package dataset

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
)

// Versioned wraps a table in an epoch-versioned lifecycle: rows may be
// appended after construction, each successful append bumping a monotonic
// epoch counter, while every snapshot ever handed out stays immutable.
//
// The concurrency contract is the frozen-prefix invariant: rows [0, n) of
// epoch e are never rewritten by any later epoch. Canonical column storage
// grows by amortized append; snapshots are built from capacity-clamped
// sub-slices, so a writer extending the backing array past a snapshot's
// length is invisible to that snapshot's readers. Categorical dictionaries
// are append-only for the same reason: a level keeps its code forever, so
// items bound to an old epoch's codes remain valid on every later one.
//
// Appends are atomic: a batch is fully validated against the schema before
// any column is touched, and the epoch advances only after every column
// has grown. Concurrent Snapshot/Append calls are safe; Append callers are
// serialized.
//
// Because of the frozen prefix, a past epoch is fully determined by its
// row count and each categorical column's level count. Versioned keeps
// those marks for the most recent epochs in a bounded ring, so SnapshotAt
// can rebuild any retained epoch's view without storing a table per epoch.
type Versioned struct {
	mu    sync.Mutex
	epoch uint64
	cols  []vcol
	nrows int
	marks []mark // ring indexed by epoch % len(marks)
	snap  *Table // cached snapshot of the current epoch
}

// DefaultRetain is how many recent epochs, the current one included,
// SnapshotAt serves when SetRetain was never called.
const DefaultRetain = 8

// mark records what one epoch's view exposes: its row count and, per
// column, its categorical level count (0 for continuous columns).
type mark struct {
	epoch  uint64 // 0 marks an empty ring slot
	nrows  int
	levels []int
}

// vcol is the canonical growable storage of one column.
type vcol struct {
	field  Field
	floats []float64
	codes  []int
	levels []string
	index  map[string]int // level name -> code, mirrors levels
}

// NewVersioned wraps t as epoch 1 of a versioned dataset. Column storage
// is copied, so the source table is unaffected by later appends.
func NewVersioned(t *Table) *Versioned {
	return NewVersionedAt(t, 1)
}

// NewVersionedAt wraps t as the given epoch instead of 1 — the recovery
// constructor: a decoded snapshot resumes at its recorded epoch, then
// WAL replay advances it record by record. No earlier epoch is
// retained.
func NewVersionedAt(t *Table, epoch uint64) *Versioned {
	if epoch < 1 {
		epoch = 1
	}
	v := &Versioned{epoch: epoch, nrows: t.nrows, marks: make([]mark, DefaultRetain)}
	for _, c := range t.cols {
		vc := vcol{field: c.field}
		if c.field.Kind == Continuous {
			vc.floats = append([]float64(nil), c.floats...)
		} else {
			vc.codes = append([]int(nil), c.codes...)
			vc.levels = append([]string(nil), c.levels...)
			vc.index = make(map[string]int, len(c.levels))
			for i, l := range c.levels {
				vc.index[l] = i
			}
		}
		v.cols = append(v.cols, vc)
	}
	v.markLocked()
	return v
}

// SetRetain sets how many recent epochs, the current one included,
// SnapshotAt serves: after epoch E, epochs at or below E−n are gone.
// n < 1 selects DefaultRetain. The window restarts at the current epoch,
// so call it right after construction — before WAL replay, when
// recovering — to keep every later epoch's mark.
func (v *Versioned) SetRetain(n int) {
	if n < 1 {
		n = DefaultRetain
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.marks = make([]mark, n)
	v.markLocked()
}

// markLocked records the current epoch's mark, overwriting the ring slot
// of the epoch that just fell out of the window. Callers hold v.mu.
func (v *Versioned) markLocked() {
	m := &v.marks[v.epoch%uint64(len(v.marks))]
	m.epoch, m.nrows = v.epoch, v.nrows
	m.levels = m.levels[:0]
	for i := range v.cols {
		m.levels = append(m.levels, len(v.cols[i].levels))
	}
}

// Epoch returns the current epoch (1 for the as-loaded table, +1 per
// successful append).
func (v *Versioned) Epoch() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.epoch
}

// NumRows returns the current row count.
func (v *Versioned) NumRows() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.nrows
}

// Fields returns the schema in column order.
func (v *Versioned) Fields() []Field {
	out := make([]Field, len(v.cols))
	for i := range v.cols {
		out[i] = v.cols[i].field
	}
	return out
}

// Snapshot returns an immutable table view of the current epoch together
// with its epoch number: SnapshotAt of the current epoch, cached until the
// next append.
func (v *Versioned) Snapshot() (*Table, uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	t, _ := v.atLocked(v.epoch)
	return t, v.epoch
}

// SnapshotAt returns the immutable table view of a retained epoch: the
// current one or any of the SetRetain−1 before it, never one before the
// epoch the dataset was constructed at. The view shares storage with the
// canonical columns through capacity-clamped slices, so building one is
// O(columns), and it remains valid (and constant) however many appends
// follow. The result equals the Snapshot taken while that epoch was
// current. ok is false for a future, retired or never-seen epoch.
func (v *Versioned) SnapshotAt(epoch uint64) (t *Table, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.atLocked(epoch)
}

// Oldest returns the oldest epoch SnapshotAt still serves. Every epoch
// below it is retired: epoch-keyed caches and log compaction follow this
// floor.
func (v *Versioned) Oldest() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	oldest := v.epoch
	for _, m := range v.marks {
		if m.epoch != 0 && m.epoch < oldest {
			oldest = m.epoch
		}
	}
	return oldest
}

// atLocked implements SnapshotAt. The ring holds exactly the retained
// epochs — a slot is overwritten when its epoch leaves the window — so a
// future, retired or pre-base epoch finds an empty slot or another
// epoch's mark. Callers hold v.mu.
func (v *Versioned) atLocked(epoch uint64) (*Table, bool) {
	m := &v.marks[epoch%uint64(len(v.marks))]
	if epoch == 0 || m.epoch != epoch {
		return nil, false
	}
	if epoch != v.epoch {
		return v.view(m), true
	}
	if v.snap == nil {
		v.snap = v.view(m)
	}
	return v.snap, true
}

// view builds the capacity-clamped table of one epoch's mark.
func (v *Versioned) view(m *mark) *Table {
	b := NewBuilder()
	for i := range v.cols {
		c := &v.cols[i]
		if c.field.Kind == Continuous {
			b.AddFloat(c.field.Name, c.floats[:m.nrows:m.nrows])
		} else {
			nl := m.levels[i]
			b.AddCategoricalCodes(c.field.Name, c.codes[:m.nrows:m.nrows], c.levels[:nl:nl])
		}
	}
	return b.MustBuild()
}

// Batch is a parsed, schema-checked set of rows to append: per column of
// the schema, the column's new values in row order. Build one with
// ParseBatch (the HTTP body format) or assemble it in code for tests.
type Batch struct {
	// Floats holds the new values of every continuous column.
	Floats map[string][]float64
	// Levels holds the new level names of every categorical column.
	Levels map[string][]string
	// N is the number of rows in the batch.
	N int
}

// batchWire is the JSON wire format of an append request body:
//
//	{"columns": ["age", "sex"], "rows": [[41, "male"], [null, "female"]]}
//
// Columns must name every schema column exactly once (any order); nulls in
// continuous positions become NaN (a missing value).
type batchWire struct {
	Columns []string            `json:"columns"`
	Rows    [][]json.RawMessage `json:"rows"`
}

// ParseBatch decodes and validates an append body against a schema. It
// touches no shared state: a parse error leaves nothing half-applied, so
// append atomicity reduces to Append's own all-or-nothing contract.
func ParseBatch(data []byte, fields []Field) (*Batch, error) {
	var w batchWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("dataset: invalid append body: %w", err)
	}
	if len(w.Rows) == 0 {
		return nil, fmt.Errorf("dataset: append batch has no rows")
	}
	byName := make(map[string]int, len(fields))
	for i, f := range fields {
		byName[f.Name] = i
	}
	colOf := make([]int, len(w.Columns)) // batch position -> schema index
	seen := make([]bool, len(fields))
	for i, name := range w.Columns {
		fi, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("dataset: append names unknown column %q", name)
		}
		if seen[fi] {
			return nil, fmt.Errorf("dataset: append names column %q twice", name)
		}
		seen[fi] = true
		colOf[i] = fi
	}
	for i, f := range fields {
		if !seen[i] {
			return nil, fmt.Errorf("dataset: append is missing column %q", f.Name)
		}
	}
	b := &Batch{
		Floats: map[string][]float64{},
		Levels: map[string][]string{},
		N:      len(w.Rows),
	}
	for ri, row := range w.Rows {
		if len(row) != len(w.Columns) {
			return nil, fmt.Errorf("dataset: append row %d has %d values, want %d", ri, len(row), len(w.Columns))
		}
		for ci, raw := range row {
			f := fields[colOf[ci]]
			if f.Kind == Continuous {
				val := math.NaN()
				if string(raw) != "null" {
					if err := json.Unmarshal(raw, &val); err != nil {
						return nil, fmt.Errorf("dataset: append row %d, column %q: want a number or null: %v", ri, f.Name, err)
					}
				}
				b.Floats[f.Name] = append(b.Floats[f.Name], val)
			} else {
				var s string
				if err := json.Unmarshal(raw, &s); err != nil {
					return nil, fmt.Errorf("dataset: append row %d, column %q: want a string: %v", ri, f.Name, err)
				}
				b.Levels[f.Name] = append(b.Levels[f.Name], s)
			}
		}
	}
	return b, nil
}

// validate checks a batch against the schema without mutating anything.
func (v *Versioned) validate(b *Batch) error {
	if b == nil || b.N <= 0 {
		return fmt.Errorf("dataset: empty append batch")
	}
	for i := range v.cols {
		c := &v.cols[i]
		if c.field.Kind == Continuous {
			if got := len(b.Floats[c.field.Name]); got != b.N {
				return fmt.Errorf("dataset: append column %q has %d values, want %d", c.field.Name, got, b.N)
			}
		} else {
			if got := len(b.Levels[c.field.Name]); got != b.N {
				return fmt.Errorf("dataset: append column %q has %d values, want %d", c.field.Name, got, b.N)
			}
		}
	}
	return nil
}

// Append grows the dataset by one batch and returns the new epoch and
// total row count: AppendWith without a durability hook.
func (v *Versioned) Append(b *Batch) (epoch uint64, total int, err error) {
	return v.AppendWith(b, nil)
}

// AppendWith grows the dataset by one batch and returns the new epoch and
// total row count. The append is atomic: validation happens up front, and
// the epoch (with the snapshot rows it exposes) advances only after every
// column has grown. Unknown categorical level names extend the column's
// dictionary append-only; existing codes are never reassigned.
//
// durable, when non-nil, is the durability hook: after the batch
// validates and the next epoch is known, but before any column is
// touched, durable(nextEpoch) runs inside the critical section. If it
// fails (e.g. the write-ahead record cannot be buffered) the append
// aborts with the epoch unchanged — the memory image never runs ahead
// of what the log can replay. durable must not call back into v.
func (v *Versioned) AppendWith(b *Batch, durable func(epoch uint64) error) (epoch uint64, total int, err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.validate(b); err != nil {
		return v.epoch, v.nrows, err
	}
	if durable != nil {
		if err := durable(v.epoch + 1); err != nil {
			return v.epoch, v.nrows, err
		}
	}
	v.applyLocked(b)
	return v.epoch, v.nrows, nil
}

// applyLocked grows every column by the (already validated) batch and
// advances the epoch. Callers hold v.mu.
func (v *Versioned) applyLocked(b *Batch) {
	for i := range v.cols {
		c := &v.cols[i]
		if c.field.Kind == Continuous {
			c.floats = append(c.floats, b.Floats[c.field.Name]...)
			continue
		}
		for _, name := range b.Levels[c.field.Name] {
			code, ok := c.index[name]
			if !ok {
				code = len(c.levels)
				c.levels = append(c.levels, name)
				c.index[name] = code
			}
			c.codes = append(c.codes, code)
		}
	}
	v.nrows += b.N
	v.epoch++
	v.snap = nil
	v.markLocked()
}

// NewLevels reports whether the batch introduces categorical level names
// absent from the current dictionaries — the trigger that forces a full
// re-discretization, since hierarchies built on the old dictionary carry
// no items for the new levels. Read-only; callable before Append.
func (v *Versioned) NewLevels(b *Batch) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i := range v.cols {
		c := &v.cols[i]
		if c.field.Kind != Categorical {
			continue
		}
		for _, name := range b.Levels[c.field.Name] {
			if _, ok := c.index[name]; !ok {
				return true
			}
		}
	}
	return false
}
