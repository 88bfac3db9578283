package outcome

import "fmt"

// Bundle is an ordered set of outcome functions evaluated together in one
// mining pass. All outcomes must cover the same rows; the first outcome is
// the primary: it determines item polarities (and, upstream, the
// discretization) and therefore the itemset lattice the whole bundle
// shares.
type Bundle struct {
	outs []*Outcome
}

// NewBundle validates and assembles a bundle. At least one outcome is
// required and all outcomes must have the same length.
func NewBundle(outs ...*Outcome) (*Bundle, error) {
	if len(outs) == 0 {
		return nil, fmt.Errorf("outcome: empty bundle")
	}
	for i, o := range outs {
		if o == nil {
			return nil, fmt.Errorf("outcome: nil outcome at bundle position %d", i)
		}
		if o.Len() != outs[0].Len() {
			return nil, fmt.Errorf("outcome: bundle outcome %q has %d rows, primary %q has %d",
				o.Name, o.Len(), outs[0].Name, outs[0].Len())
		}
	}
	return &Bundle{outs: append([]*Outcome(nil), outs...)}, nil
}

// Single wraps one outcome as a bundle of one.
func Single(o *Outcome) *Bundle { return &Bundle{outs: []*Outcome{o}} }

// Len returns the number of outcomes in the bundle.
func (b *Bundle) Len() int { return len(b.outs) }

// Primary returns the lattice-determining first outcome.
func (b *Bundle) Primary() *Outcome { return b.outs[0] }

// At returns the k-th outcome.
func (b *Bundle) At(k int) *Outcome { return b.outs[k] }

// Outcomes returns the outcomes in order (shared slice; do not mutate).
func (b *Bundle) Outcomes() []*Outcome { return b.outs }
