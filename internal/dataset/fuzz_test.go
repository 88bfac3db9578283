package dataset

import (
	"strings"
	"testing"
)

// FuzzReadCSV asserts the CSV loader never panics on arbitrary input and
// that whatever it accepts can be written back out and re-read to a table
// of identical shape.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,x\n2,y\n")
	f.Add("a\n\n")
	f.Add("x,y,z\n1,2,3\n4,5,6\n")
	f.Add("h\n?\nNA\n")
	f.Add("a,a\n1,2\n")         // duplicate header
	f.Add("a,b\n\"q\"\"\",2\n") // quoting
	f.Add(",\n,\n")
	f.Add("a,b\n1,Inf\n2,-infinity\n") // non-finite numeric cells
	f.Fuzz(func(t *testing.T, input string) {
		tab, err := ReadCSV(strings.NewReader(input), CSVOptions{})
		if err != nil {
			return // rejection is fine; panics are not
		}
		var sb strings.Builder
		if err := tab.WriteCSV(&sb); err != nil {
			t.Fatalf("accepted table failed to serialize: %v", err)
		}
		back, err := ReadCSV(strings.NewReader(sb.String()), CSVOptions{})
		if err != nil {
			t.Fatalf("round-trip rejected: %v\noriginal: %q\nwritten: %q", err, input, sb.String())
		}
		if back.NumRows() != tab.NumRows() || back.NumCols() != tab.NumCols() {
			t.Fatalf("round-trip changed shape: (%d,%d) -> (%d,%d)",
				tab.NumRows(), tab.NumCols(), back.NumRows(), back.NumCols())
		}
	})
}
