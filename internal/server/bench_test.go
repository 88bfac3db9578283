package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// BenchmarkServeExplore is the HTTP-handler layer of a warm request: one
// op serves warm-explore's 24 request shapes (fpr, fnr and error × s
// {0.01, 0.02, 0.05, 0.1} × polarity off/on, top 10) through ServeHTTP
// over a 20,000-row datagen compas table with its label and prediction
// columns, the drift monitor at its default. One untimed pass first
// builds the three universes and lets each keep its root tree, as a warm
// daemon's cache holds them, so an op is decode, cache hit, mining,
// ranking, the drift watch and JSON encoding.
func BenchmarkServeExplore(b *testing.B) {
	d := datagen.Compas(datagen.Config{N: 20_000, Seed: 1})
	tb := dataset.NewBuilder()
	for _, f := range d.Table.Fields() {
		if f.Kind == dataset.Continuous {
			tb.AddFloat(f.Name, d.Table.Floats(f.Name))
		} else {
			tb.AddCategoricalCodes(f.Name, d.Table.Codes(f.Name), d.Table.Levels(f.Name))
		}
	}
	for _, col := range []struct {
		name string
		vals []bool
	}{{"label", d.Actual}, {"prediction", d.Predicted}} {
		vals := make([]string, len(col.vals))
		for i, v := range col.vals {
			vals[i] = strconv.FormatBool(v)
		}
		tb.AddCategorical(col.name, vals)
	}
	s, err := New(Config{Datasets: []DatasetConfig{{Name: "compas", Table: tb.MustBuild()}}})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	var bodies [][]byte
	for _, stat := range []string{"fpr", "fnr", "error"} {
		for _, sup := range []float64{0.01, 0.02, 0.05, 0.1} {
			for _, pol := range []bool{false, true} {
				raw, err := json.Marshal(ExploreRequest{
					Dataset: "compas", Stat: stat, Actual: "label", Predicted: "prediction",
					S: sup, Polarity: pol, Top: 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				bodies = append(bodies, raw)
			}
		}
	}
	serveAll := func() {
		for _, body := range bodies {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/explore", bytes.NewReader(body)))
			if rec.Code != 200 {
				b.Fatalf("explore %s: %d %s", body, rec.Code, rec.Body.String())
			}
		}
	}
	serveAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveAll()
	}
}
