package hdivexplorer

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/outcome"
)

// TestGoldenRankedCSV is the golden-report test: hierarchical FP-Growth's
// ranked CSV for a boolean and a numeric target must equal, byte for byte,
// the committed files under testdata/golden at Workers {0, 1, 4}: 0, the
// default, runs on every core, 1 serially. The files were produced before
// any change they now guard; when this test fails, the code changed the
// output — fix the code, do not regenerate the file.
//
// The boolean target (COMPAS FPR) sums exact integers; the numeric target
// (folktables income with the OCCP and POBP taxonomies) sums floats, whose
// rounding depends on the order rows are added in, so the worker count
// must not move a byte of either.
func TestGoldenRankedCSV(t *testing.T) {
	compas := datagen.Compas(datagen.Config{Seed: 1})
	folk := datagen.Folktables(datagen.Config{N: 20_000, Seed: 5})
	cases := []struct {
		name    string
		table   *Table
		outcome *Outcome
		taxa    []*Hierarchy
	}{
		{"compas_fpr", compas.Table, outcome.FalsePositiveRate(compas.Actual, compas.Predicted), nil},
		{"folktables_income", folk.Table, Numeric("income", folk.Target), datagen.FolktablesTaxonomies(folk.Table)},
	}
	for _, tc := range cases {
		file := tc.name + ".csv"
		want, err := os.ReadFile(filepath.Join("testdata", "golden", file))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 4} {
			rep, err := Pipeline(tc.table, tc.outcome, PipelineOptions{
				TreeSupport: 0.1, MinSupport: 0.1, Algorithm: FPGrowth,
				Workers: workers, Taxonomies: tc.taxa,
			})
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := rep.WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s workers=%d: ranked CSV differs from testdata/golden/%s",
					tc.name, workers, file)
			}
		}
	}
}
