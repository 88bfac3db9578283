package main

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestStreamsKeepTheMixAcrossSeeds: every whole pass of a request stream
// holds each shape class exactly once, so seeds change the order of the
// work but not its amount.
func TestStreamsKeepTheMixAcrossSeeds(t *testing.T) {
	const passes = 3
	n := len(warmShapes())
	var first []shape
	for _, seed := range []int64{1, 2} {
		seq := warmSequence(seed, passes*n)
		count := map[shape]int{}
		for _, sh := range seq {
			count[sh]++
		}
		if len(count) != n {
			t.Errorf("seed %d: %d distinct warm shapes in %d passes, want %d", seed, len(count), passes, n)
		}
		for sh, c := range count {
			if c != passes {
				t.Errorf("seed %d: warm shape %+v dealt %d times in %d passes", seed, sh, c, passes)
			}
		}
		if first == nil {
			first = seq
		} else if fmt.Sprint(seq) == fmt.Sprint(first) {
			t.Error("seeds 1 and 2 deal the warm shapes in the same order")
		}
	}

	classes := len(statNames) * 2 * coldStrata
	cold := newColdStream(rand.New(rand.NewSource(1)))
	for pass := 0; pass < passes; pass++ {
		seen := map[string]bool{}
		for i := 0; i < classes; i++ {
			sh := cold.next()
			stratum := int((sh.ST - 0.02) / (0.28 / coldStrata))
			if sh.ST < 0.02 || sh.ST > 0.30 || sh.ST != math.Round(sh.ST*1e4)/1e4 {
				t.Fatalf("cold st %v outside [0.02, 0.30] or not at four decimals", sh.ST)
			}
			seen[fmt.Sprint(sh.Stat, sh.Criterion, min(stratum, coldStrata-1))] = true
		}
		if len(seen) != classes {
			t.Errorf("cold pass %d covers %d of the %d stat × criterion × st classes", pass, len(seen), classes)
		}
	}
}
