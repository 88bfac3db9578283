package dataset

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func buildSample(t *testing.T) *Table {
	t.Helper()
	tab, err := NewBuilder().
		AddFloat("age", []float64{23, 45, 31, 23}).
		AddCategorical("sex", []string{"M", "F", "F", "M"}).
		AddCategorical("charge", []string{"F", "F", "M", "M"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestBuilderBasics(t *testing.T) {
	tab := buildSample(t)
	if tab.NumRows() != 4 || tab.NumCols() != 3 {
		t.Fatalf("dims = (%d,%d), want (4,3)", tab.NumRows(), tab.NumCols())
	}
	fields := tab.Fields()
	if fields[0] != (Field{"age", Continuous}) {
		t.Errorf("field 0 = %+v", fields[0])
	}
	if fields[1] != (Field{"sex", Categorical}) {
		t.Errorf("field 1 = %+v", fields[1])
	}
	if got := tab.Names(); got[2] != "charge" {
		t.Errorf("Names = %v", got)
	}
	nc, nk := tab.CountKinds()
	if nc != 1 || nk != 2 {
		t.Errorf("CountKinds = (%d,%d), want (1,2)", nc, nk)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder().AddFloat("a", []float64{1}).AddFloat("a", []float64{2}).Build(); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := NewBuilder().AddFloat("a", []float64{1, 2}).AddFloat("b", []float64{1}).Build(); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := NewBuilder().AddCategoricalCodes("c", []int{0, 5}, []string{"x"}).Build(); err == nil {
		t.Error("out-of-range code should fail")
	}
	// Error is sticky: later valid adds do not clear it.
	if _, err := NewBuilder().
		AddFloat("a", []float64{1, 2}).
		AddFloat("b", []float64{1}).
		AddFloat("c", []float64{3, 4}).Build(); err == nil {
		t.Error("sticky error lost")
	}
}

func TestCategoricalEncoding(t *testing.T) {
	tab := buildSample(t)
	codes := tab.Codes("sex")
	levels := tab.Levels("sex")
	if len(levels) != 2 || levels[0] != "M" || levels[1] != "F" {
		t.Fatalf("levels = %v", levels)
	}
	want := []int{0, 1, 1, 0}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("codes = %v, want %v", codes, want)
		}
	}
	if tab.LevelCode("sex", "F") != 1 {
		t.Error("LevelCode(F) != 1")
	}
	if tab.LevelCode("sex", "X") != -1 {
		t.Error("LevelCode of missing level should be -1")
	}
}

func TestKindAccessorPanics(t *testing.T) {
	tab := buildSample(t)
	for name, fn := range map[string]func(){
		"FloatsOnCat":  func() { tab.Floats("sex") },
		"CodesOnFloat": func() { tab.Codes("age") },
		"NoSuchColumn": func() { tab.Floats("nope") },
		"RowRange":     func() { tab.ValueString(99, "age") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestValueString(t *testing.T) {
	tab := buildSample(t)
	if got := tab.ValueString(1, "age"); got != "45" {
		t.Errorf("ValueString age = %q", got)
	}
	if got := tab.ValueString(1, "sex"); got != "F" {
		t.Errorf("ValueString sex = %q", got)
	}
}

func TestSelectAndDrop(t *testing.T) {
	tab := buildSample(t)
	sub, err := tab.Select("sex", "age")
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumCols() != 2 || sub.Names()[0] != "sex" {
		t.Errorf("Select got %v", sub.Names())
	}
	if _, err := tab.Select("nope"); err == nil {
		t.Error("Select of missing column should fail")
	}
	d, err := tab.Drop("charge")
	if err != nil {
		t.Fatal(err)
	}
	if d.NumCols() != 2 || d.HasColumn("charge") {
		t.Errorf("Drop got %v", d.Names())
	}
	if _, err := tab.Drop("nope"); err == nil {
		t.Error("Drop of missing column should fail")
	}
}

func TestFilterRows(t *testing.T) {
	tab := buildSample(t)
	f := tab.FilterRows([]int{2, 0})
	if f.NumRows() != 2 {
		t.Fatalf("NumRows = %d", f.NumRows())
	}
	if f.Floats("age")[0] != 31 || f.Floats("age")[1] != 23 {
		t.Errorf("age = %v", f.Floats("age"))
	}
	if f.ValueString(0, "sex") != "F" || f.ValueString(1, "sex") != "M" {
		t.Error("sex values wrong after filter")
	}
}

const sampleCSV = `age,sex,zip,score
23,M,90210,0.5
45,F,10001,0.25
31,F,90210,
,M,10001,0.75
`

func TestReadCSVInference(t *testing.T) {
	tab, err := ReadCSV(strings.NewReader(sampleCSV), CSVOptions{ForceCategorical: []string{"zip"}})
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 4 {
		t.Fatalf("NumRows = %d", tab.NumRows())
	}
	if tab.KindOf("age") != Continuous || tab.KindOf("sex") != Categorical {
		t.Error("kind inference wrong")
	}
	if tab.KindOf("zip") != Categorical {
		t.Error("ForceCategorical ignored")
	}
	if !math.IsNaN(tab.Floats("age")[3]) {
		t.Error("missing continuous value should be NaN")
	}
	if !math.IsNaN(tab.Floats("score")[2]) {
		t.Error("missing score should be NaN")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), CSVOptions{}); err == nil {
		t.Error("empty CSV should fail")
	}
	// csv.Reader rejects ragged rows itself.
	if _, err := ReadCSV(strings.NewReader("a,b\n1\n"), CSVOptions{}); err == nil {
		t.Error("ragged row should fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab := buildSample(t)
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tab.NumRows() || back.NumCols() != tab.NumCols() {
		t.Fatalf("round trip dims (%d,%d)", back.NumRows(), back.NumCols())
	}
	for i := 0; i < tab.NumRows(); i++ {
		for _, n := range tab.Names() {
			if tab.ValueString(i, n) != back.ValueString(i, n) {
				t.Fatalf("row %d col %s: %q != %q", i, n, tab.ValueString(i, n), back.ValueString(i, n))
			}
		}
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	tab := buildSample(t)
	path := t.TempDir() + "/t.csv"
	if err := tab.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVFile(path, CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 4 {
		t.Fatalf("NumRows = %d", back.NumRows())
	}
	if _, err := ReadCSVFile(path+".missing", CSVOptions{}); err == nil {
		t.Error("missing file should fail")
	}
}

func TestAllMissingColumnIsCategorical(t *testing.T) {
	tab, err := ReadCSV(strings.NewReader("a,b\n1,?\n2,?\n"), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tab.KindOf("b") != Categorical {
		t.Error("all-missing column should be categorical")
	}
	if tab.ValueString(0, "b") != "?" {
		t.Error("missing categorical should read as ?")
	}
}

// Property: dictionary encoding round-trips arbitrary string columns.
func TestQuickCategoricalRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		alphabet := []string{"a", "b", "c", "d", "e é", "x,y", `q"u`}
		vals := make([]string, n)
		for i := range vals {
			vals[i] = alphabet[r.Intn(len(alphabet))]
		}
		tab := NewBuilder().AddCategorical("c", vals).MustBuild()
		codes, levels := tab.Codes("c"), tab.Levels("c")
		for i := range vals {
			if levels[codes[i]] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CSV write/read round-trips tables with special characters.
func TestQuickCSVRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		floats := make([]float64, n)
		cats := make([]string, n)
		alphabet := []string{"plain", "with,comma", `with"quote`, "with\nnewline", "ünïcødé"}
		for i := range floats {
			floats[i] = math.Round(r.Float64()*1000) / 8
			cats[i] = alphabet[r.Intn(len(alphabet))]
		}
		tab := NewBuilder().AddFloat("f", floats).AddCategorical("c", cats).MustBuild()
		var buf bytes.Buffer
		if err := tab.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV(&buf, CSVOptions{})
		if err != nil {
			return false
		}
		if back.NumRows() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if back.Floats("f")[i] != floats[i] || back.ValueString(i, "c") != cats[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestReadCSVRejectsNonFinite pins input validation at the loader: a
// ±Inf cell in a numeric column is an error naming the column and row,
// not a stored value that would turn every mean over it into Inf and every
// Δ and t-value into NaN. A literal NaN still reads as a missing value.
func TestReadCSVRejectsNonFinite(t *testing.T) {
	for _, cell := range []string{"Inf", "+Inf", "-Inf", "infinity", "-INFINITY"} {
		_, err := ReadCSV(strings.NewReader("x,y\n1,0.5\n2,"+cell+"\n3,1.5\n"), CSVOptions{})
		if err == nil {
			t.Errorf("%q cell accepted", cell)
			continue
		}
		want := fmt.Sprintf(`dataset: column "y" row 2: non-finite value %q`, cell)
		if err.Error() != want {
			t.Errorf("%q cell: error %q, want %q", cell, err, want)
		}
	}
	tab, err := ReadCSV(strings.NewReader("x,y\n1,0.5\n2,NaN\n"), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tab.KindOf("y") != Continuous || !math.IsNaN(tab.Floats("y")[1]) {
		t.Error("literal NaN should read as a missing continuous value")
	}
}

func TestReadCSVRejectsEmptyColumnName(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(" \n1\n"), CSVOptions{}); err == nil {
		t.Error("blank header name should fail")
	}
	if _, err := ReadCSV(strings.NewReader("a,,c\n1,2,3\n"), CSVOptions{}); err == nil {
		t.Error("empty header name should fail")
	}
}
