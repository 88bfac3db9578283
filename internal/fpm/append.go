package fpm

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/outcome"
)

// AppendUniverse rebuilds a universe after rows were appended to its
// dataset: t is the grown table (the old rows a frozen prefix of it), u
// the universe built over the prefix, and o the outcome recomputed over
// the full table. It is NewUniverse(t, u.Items, o), refused when t has
// fewer rows than u; u itself is never mutated. Its only caller is the
// bench harness's epoch build, and ROADMAP item 2 deletes it together
// with that copy of the server's build path.
func AppendUniverse(t *dataset.Table, u *Universe, o *outcome.Outcome) (*Universe, error) {
	if t.NumRows() < u.NumRows {
		return nil, fmt.Errorf("fpm: append universe shrinks %d -> %d rows", u.NumRows, t.NumRows())
	}
	return NewUniverse(t, u.Items, o), nil
}
