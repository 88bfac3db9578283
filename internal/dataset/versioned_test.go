package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func seedTable() *Table {
	return NewBuilder().
		AddFloat("age", []float64{25, 40, 33, math.NaN()}).
		AddCategorical("sex", []string{"male", "female", "male", "female"}).
		MustBuild()
}

func floatBatch(ages []float64, sexes []string) *Batch {
	return &Batch{
		Floats: map[string][]float64{"age": ages},
		Levels: map[string][]string{"sex": sexes},
		N:      len(ages),
	}
}

func TestVersionedSnapshotIsolation(t *testing.T) {
	v := NewVersioned(seedTable())
	s1, e1 := v.Snapshot()
	if e1 != 1 {
		t.Fatalf("initial epoch = %d, want 1", e1)
	}
	if s1.NumRows() != 4 {
		t.Fatalf("initial snapshot rows = %d, want 4", s1.NumRows())
	}

	// Append enough rows to force the backing arrays to reallocate at least
	// once, then verify the old snapshot is untouched.
	for i := 0; i < 8; i++ {
		if _, _, err := v.Append(floatBatch(
			[]float64{float64(50 + i), 60},
			[]string{"male", "other"},
		)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	s2, e2 := v.Snapshot()
	if e2 != 9 {
		t.Fatalf("epoch after 8 appends = %d, want 9", e2)
	}
	if s2.NumRows() != 4+16 {
		t.Fatalf("rows after appends = %d, want 20", s2.NumRows())
	}
	if s1.NumRows() != 4 {
		t.Errorf("old snapshot row count changed to %d", s1.NumRows())
	}
	if got := s1.Floats("age"); len(got) != 4 || got[0] != 25 || got[1] != 40 {
		t.Errorf("old snapshot floats mutated: %v", got)
	}
	if got := s1.Levels("sex"); len(got) != 2 {
		t.Errorf("old snapshot dictionary grew: %v", got)
	}
	// Appending to the old snapshot's clamped slices must not be possible
	// via shared backing arrays: the new snapshot sees its own data.
	if got := s2.Floats("age")[4]; got != 50 {
		t.Errorf("new snapshot first appended age = %v, want 50", got)
	}

	// Snapshot is cached per epoch: same pointer until the next append.
	s2b, _ := v.Snapshot()
	if s2b != s2 {
		t.Error("Snapshot not cached within an epoch")
	}
}

func TestVersionedDictionaryStability(t *testing.T) {
	v := NewVersioned(seedTable())
	s1, _ := v.Snapshot()
	maleCode := s1.LevelCode("sex", "male")
	femaleCode := s1.LevelCode("sex", "female")

	if _, _, err := v.Append(floatBatch([]float64{1}, []string{"other"})); err != nil {
		t.Fatal(err)
	}
	s2, _ := v.Snapshot()
	if got := s2.LevelCode("sex", "male"); got != maleCode {
		t.Errorf("male code changed %d -> %d", maleCode, got)
	}
	if got := s2.LevelCode("sex", "female"); got != femaleCode {
		t.Errorf("female code changed %d -> %d", femaleCode, got)
	}
	if got := s2.LevelCode("sex", "other"); got != 2 {
		t.Errorf("new level code = %d, want 2 (appended to dictionary)", got)
	}
	if got := s2.Levels("sex"); len(got) != 3 || got[2] != "other" {
		t.Errorf("dictionary = %v, want [male female other]", got)
	}
}

func TestVersionedAppendAtomicity(t *testing.T) {
	v := NewVersioned(seedTable())
	// Ragged batch: float column shorter than N.
	bad := &Batch{
		Floats: map[string][]float64{"age": {1}},
		Levels: map[string][]string{"sex": {"male", "female"}},
		N:      2,
	}
	if _, _, err := v.Append(bad); err == nil {
		t.Fatal("ragged batch accepted")
	}
	if e := v.Epoch(); e != 1 {
		t.Errorf("epoch advanced to %d on failed append", e)
	}
	if n := v.NumRows(); n != 4 {
		t.Errorf("rows changed to %d on failed append", n)
	}
	if _, _, err := v.Append(nil); err == nil {
		t.Fatal("nil batch accepted")
	}
	if _, _, err := v.Append(&Batch{N: 0}); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestParseBatch(t *testing.T) {
	fields := seedTable().Fields()

	b, err := ParseBatch([]byte(`{
		"columns": ["sex", "age"],
		"rows": [["male", 41], ["female", null]]
	}`), fields)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 2 {
		t.Fatalf("N = %d, want 2", b.N)
	}
	if got := b.Floats["age"]; got[0] != 41 || !math.IsNaN(got[1]) {
		t.Errorf("age = %v, want [41 NaN]", got)
	}
	if got := b.Levels["sex"]; got[0] != "male" || got[1] != "female" {
		t.Errorf("sex = %v", got)
	}

	for name, body := range map[string]string{
		"not json":       `{`,
		"no rows":        `{"columns": ["age", "sex"], "rows": []}`,
		"unknown column": `{"columns": ["age", "sex", "zz"], "rows": [[1, "m", 2]]}`,
		"dup column":     `{"columns": ["age", "age"], "rows": [[1, 2]]}`,
		"missing column": `{"columns": ["age"], "rows": [[1]]}`,
		"ragged row":     `{"columns": ["age", "sex"], "rows": [[1]]}`,
		"string for num": `{"columns": ["age", "sex"], "rows": [["x", "m"]]}`,
		"num for string": `{"columns": ["age", "sex"], "rows": [[1, 2]]}`,
	} {
		if _, err := ParseBatch([]byte(body), fields); err == nil {
			t.Errorf("%s: ParseBatch accepted invalid body", name)
		} else if !strings.Contains(err.Error(), "dataset:") {
			t.Errorf("%s: error %q missing package prefix", name, err)
		}
	}
}

// TestSnapshotAtProperty applies seeded random batches, some introducing
// new categorical levels, and checks after every append that each
// retained epoch's SnapshotAt equals the Snapshot taken while that epoch
// was current, while retired, future and pre-base epochs report false.
// The base table has no NaN: reflect.DeepEqual never equates NaNs held in
// distinct backing arrays.
func TestSnapshotAtProperty(t *testing.T) {
	tab := NewBuilder().
		AddFloat("age", []float64{25, 40, 33, 61}).
		AddCategorical("sex", []string{"male", "female", "male", "female"}).
		MustBuild()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		retain := 1 + rng.Intn(5)
		base := uint64(1 + rng.Intn(4))
		v := NewVersionedAt(tab, base)
		v.SetRetain(retain)
		snaps := map[uint64]*Table{}
		snaps[base], _ = v.Snapshot()
		for i := 0; i < 20; i++ {
			n := 1 + rng.Intn(4)
			ages := make([]float64, n)
			sexes := make([]string, n)
			for j := range ages {
				ages[j] = float64(rng.Intn(90))
				sexes[j] = []string{"male", "female"}[rng.Intn(2)]
				if rng.Intn(4) == 0 {
					sexes[j] = fmt.Sprintf("level%d", rng.Intn(1000))
				}
			}
			if _, _, err := v.Append(floatBatch(ages, sexes)); err != nil {
				t.Fatalf("seed %d append %d: %v", seed, i, err)
			}
			cur := v.Epoch()
			snaps[cur], _ = v.Snapshot()
			var oldest uint64
			for e := uint64(0); e <= cur+1; e++ {
				got, ok := v.SnapshotAt(e)
				retained := e >= base && e <= cur && e+uint64(retain) > cur
				if ok != retained {
					t.Fatalf("seed %d (retain %d, base %d): SnapshotAt(%d) at epoch %d ok=%v, want %v",
						seed, retain, base, e, cur, ok, retained)
				}
				if ok && !reflect.DeepEqual(got, snaps[e]) {
					t.Fatalf("seed %d: SnapshotAt(%d) at epoch %d differs from the snapshot taken at %d", seed, e, cur, e)
				}
				if ok && oldest == 0 {
					oldest = e
				}
			}
			if got := v.Oldest(); got != oldest {
				t.Fatalf("seed %d: Oldest at epoch %d = %d, want %d", seed, cur, got, oldest)
			}
		}
	}
}
