package fpm

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/outcome"
)

// AppendUniverse maintains a universe after rows were appended to its
// dataset: t is the grown table (the old rows a frozen prefix of it), u
// the universe built over the prefix, and o the outcome recomputed over
// the full table. It is NewUniverseFrom(t, u.Items, o, u), the case where
// every item is reused: only the appended rows [u.NumRows, t.NumRows())
// are scanned per item, and the result is byte-identical to
// NewUniverse(t, u.Items, o). u itself is never mutated, so explorations
// holding the old epoch's universe are undisturbed.
//
// The items must still describe the table: categorical dictionaries are
// append-only under dataset.Versioned, so old codes remain valid.
func AppendUniverse(t *dataset.Table, u *Universe, o *outcome.Outcome) (*Universe, error) {
	if err := faultinject.Hit(faultinject.SiteUniverseAppend); err != nil {
		return nil, err
	}
	if t.NumRows() < u.NumRows {
		return nil, fmt.Errorf("fpm: append universe shrinks %d -> %d rows", u.NumRows, t.NumRows())
	}
	return NewUniverseFrom(t, u.Items, o, u), nil
}
