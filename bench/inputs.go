package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/server"
)

// Column names of the generated compas CSV: the datagen feature table
// plus the ground truth and the proprietary score's prediction as
// true/false columns, the layout cmd/mkdata writes.
const (
	datasetName = "compas"
	actualCol   = "label"
	predCol     = "prediction"
)

// compasTable generates the served dataset: datagen.Compas at n rows with
// its label and prediction columns.
func compasTable(n int, seed int64) *dataset.Table {
	d := datagen.Compas(datagen.Config{N: n, Seed: seed})
	b := dataset.NewBuilder()
	for _, f := range d.Table.Fields() {
		if f.Kind == dataset.Continuous {
			b.AddFloat(f.Name, d.Table.Floats(f.Name))
		} else {
			b.AddCategoricalCodes(f.Name, d.Table.Codes(f.Name), d.Table.Levels(f.Name))
		}
	}
	b.AddCategorical(actualCol, boolStrings(d.Actual))
	b.AddCategorical(predCol, boolStrings(d.Predicted))
	return b.MustBuild()
}

func boolStrings(vals []bool) []string {
	s := make([]string, len(vals))
	for i, v := range vals {
		s[i] = strconv.FormatBool(v)
	}
	return s
}

// shape is one exploration request shape. Zero values take the server's
// and the CLI's shared defaults.
type shape struct {
	Stat      string
	S         float64
	ST        float64
	Criterion string
	Polarity  bool
	MaxLen    int
	Top       int
}

// request renders the shape as a POST /v1/explore body.
func (sh shape) request(format string, epoch uint64) []byte {
	raw, err := json.Marshal(server.ExploreRequest{
		Dataset: datasetName, Stat: sh.Stat, Actual: actualCol, Predicted: predCol,
		S: sh.S, ST: sh.ST, Criterion: sh.Criterion, Polarity: sh.Polarity,
		MaxLen: sh.MaxLen, Top: sh.Top, Format: format, Epoch: epoch,
	})
	if err != nil {
		panic(err) // a fixed struct of plain fields always marshals
	}
	return raw
}

// cliArgs renders the shape as hdivexplorer flags producing the same
// ranked CSV.
func (sh shape) cliArgs(csvPath string) []string {
	args := []string{"-data", csvPath, "-actual", actualCol, "-predicted", predCol,
		"-stat", sh.Stat, "-format", "csv"}
	if sh.S != 0 {
		args = append(args, "-s", fmtFloat(sh.S))
	}
	if sh.ST != 0 {
		args = append(args, "-st", fmtFloat(sh.ST))
	}
	if sh.Criterion != "" {
		args = append(args, "-criterion", sh.Criterion)
	}
	if sh.Polarity {
		args = append(args, "-polarity")
	}
	if sh.MaxLen != 0 {
		args = append(args, "-maxlen", strconv.Itoa(sh.MaxLen))
	}
	return args
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

var statNames = []string{"fpr", "fnr", "error"}

// shuffled deals the indices 0..n-1 in seeded random passes: every index
// once per pass, in a fresh order each pass. A request stream dealt this
// way has the same mix of shapes whatever the seed, so the seed changes
// the order of the work but not its amount.
type shuffled struct {
	r    *rand.Rand
	n    int
	pass []int
}

func newShuffled(r *rand.Rand, n int) *shuffled { return &shuffled{r: r, n: n} }

func (s *shuffled) next() int {
	if len(s.pass) == 0 {
		s.pass = s.r.Perm(s.n)
	}
	i := s.pass[0]
	s.pass = s.pass[1:]
	return i
}

// warmShapes is warm-explore's request space: stat × s × polarity, top 10.
// Discretization depends on none of s and polarity, so the three stats
// are the only universe-cache keys.
func warmShapes() []shape {
	var out []shape
	for _, st := range statNames {
		for _, s := range []float64{0.01, 0.02, 0.05, 0.1} {
			for _, pol := range []bool{false, true} {
				out = append(out, shape{Stat: st, S: s, Polarity: pol, Top: 10})
			}
		}
	}
	return out
}

// warmStream deals warm-explore shapes in shuffled passes.
type warmStream struct {
	shapes []shape
	deal   *shuffled
}

func newWarmStream(r *rand.Rand) *warmStream {
	shapes := warmShapes()
	return &warmStream{shapes: shapes, deal: newShuffled(r, len(shapes))}
}

func (w *warmStream) next() shape { return w.shapes[w.deal.next()] }

// coldStrata is the number of equal slices of the tree-support range
// [0.02, 0.30] cold-explore draws st from; the cost of a cache fill
// follows st, so every pass covers the range evenly.
const coldStrata = 4

// coldStream deals cold-explore requests: each pass covers every stat ×
// criterion {divergence, entropy} × st stratum once, in shuffled order,
// with st drawn uniformly within its stratum to four decimals, so
// consecutive requests almost never share a universe-cache key. s 0.1 and
// max_len 2 keep the mining share small.
type coldStream struct {
	r    *rand.Rand
	deal *shuffled
}

func newColdStream(r *rand.Rand) *coldStream {
	return &coldStream{r: r, deal: newShuffled(r, len(statNames)*2*coldStrata)}
}

func (c *coldStream) next() shape {
	i := c.deal.next()
	stratum, i := i%coldStrata, i/coldStrata
	crit := "divergence"
	if i%2 == 1 {
		crit = "entropy"
	}
	width := 0.28 / coldStrata
	st := math.Round((0.02+width*(float64(stratum)+c.r.Float64()))*1e4) / 1e4
	return shape{Stat: statNames[i/2], S: 0.1, ST: st, Criterion: crit, MaxLen: 2, Top: 10}
}

// watchedShape is live-append's exploration: the single shape the drift
// monitor watches once it has been explored.
var watchedShape = shape{Stat: "fpr", S: 0.05, Top: 10}

// batchSizes are live-append's append batch sizes in rows. With {8, 16,
// 32, 64} the KS gate re-discretized about half of the epochs, so the
// median exploration fell between the incremental and the rebuild latency
// modes and its run-to-run spread was 23%; these sizes grow about three
// quarters of the epochs incrementally and still rebuild the rest.
var batchSizes = []int{16, 32, 64, 128}

// batchGen draws append bodies whose rows are resampled with replacement
// from the base table, so appends follow the served distribution and add
// no categorical levels.
type batchGen struct {
	tab *dataset.Table
	r   *rand.Rand
}

// next returns one POST /v1/datasets/{name}/rows body and its row count.
func (g *batchGen) next() ([]byte, int) {
	n := batchSizes[g.r.Intn(len(batchSizes))]
	fields := g.tab.Fields()
	var b bytes.Buffer
	b.WriteString(`{"columns":[`)
	for i, f := range fields {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(f.Name))
	}
	b.WriteString(`],"rows":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		row := g.r.Intn(g.tab.NumRows())
		b.WriteByte('[')
		for j, f := range fields {
			if j > 0 {
				b.WriteByte(',')
			}
			if f.Kind == dataset.Continuous {
				v := g.tab.Floats(f.Name)[row]
				if math.IsNaN(v) {
					b.WriteString("null")
				} else {
					b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
				}
			} else {
				b.WriteString(strconv.Quote(g.tab.ValueString(row, f.Name)))
			}
		}
		b.WriteByte(']')
	}
	b.WriteString(`]}`)
	return b.Bytes(), n
}
