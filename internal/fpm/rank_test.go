package fpm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/stats"
)

// TestRankRadixEdges pins Rank to its stable-sort oracle (stableRank) on
// itemsets that stretch every field of the tie prefix: lengths 1–12,
// universes of 100, 400 and 20,000 items (one-, two- and three-byte
// varints), counts from 1 to 2^20 with many repeats, shared leading
// items, NaN and zero divergences, and a few exact duplicates, at workers
// {1, 2, 3, 8} on a size that splits into eight chunks. It also checks
// that varintRank orders each universe as varintLess does.
func TestRankRadixEdges(t *testing.T) {
	o := rankOutcome()
	n := 8*RankChunkMin + 13
	for _, universe := range []int{100, 400, 20_000} {
		order := make([]int, universe)
		for v := range order {
			order[v] = v
		}
		sort.Slice(order, func(x, y int) bool { return varintLess(order[x], order[y]) })
		for r, v := range order {
			if got := varintRank(v, universe-1); got != r {
				t.Fatalf("universe %d: varintRank(%d) = %d, want %d", universe, v, got, r)
			}
		}
		for _, wide := range []bool{false, true} {
			items := radixItems(int64(universe), n, universe, wide)
			for k := 0; k <= 1; k++ {
				for _, w := range []int{1, 2, 3, 8} {
					checkRank(t, fmt.Sprintf("universe %d wide counts %v k=%d", universe, wide, k), items, k, o, w)
				}
			}
		}
	}
}

// TestRankPanicRaised pins Rank's panic path: the last itemset's
// missing moments panic at the end of the last chunk's first phase,
// while the other workers most likely wait to sort (hence the repeats),
// and Rank raises the panic again on the caller's goroutine, at every
// worker count, without the waiting steps waiting forever for the chunk
// that panicked.
func TestRankPanicRaised(t *testing.T) {
	items := rankItems(1, 8*RankChunkMin)
	items[len(items)-1].Multi = nil // MomentsAt(1) indexes past it
	for _, w := range []int{1, 3, 3, 3, 8, 8, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("workers=%d: Rank did not panic", w)
				}
			}()
			Rank(items, 1, rankOutcome(), w)
		}()
	}
}

// radixItems draws n seeded itemsets of 1–12 items of a universe, each
// with one extra outcome's moments. Half start with leading items shared
// with many others; counts repeat a few values, spread up to 2^20 when
// wide; every 500th itemset repeats the one before it.
func radixItems(seed int64, n, universe int, wide bool) []MinedItemset {
	rng := rand.New(rand.NewSource(seed))
	counts := []int{1, 2, 3, 40}
	if wide {
		counts = []int{1, 2, 1 << 10, 1<<20 - 1, 1 << 20}
	}
	items := make([]MinedItemset, 0, n)
	for len(items) < n {
		if len(items)%500 == 499 {
			items = append(items, items[len(items)-1])
			continue
		}
		size := 1 + rng.Intn(12)
		set := map[int]bool{}
		if rng.Intn(2) == 0 {
			// A shared head: the universe's last items, whose varint
			// order differs most from their numeric order.
			for j := range 1 + rng.Intn(size) {
				set[universe-1-j*(universe/16)] = true
			}
		}
		for len(set) < size {
			set[rng.Intn(universe)] = true
		}
		idx := make([]int, 0, size)
		for v := range set {
			idx = append(idx, v)
		}
		slices.Sort(idx)
		count := counts[rng.Intn(len(counts))]
		if wide && rng.Intn(4) == 0 {
			count = 1 + rng.Intn(1<<20)
		}
		items = append(items, MinedItemset{
			Items: idx, Count: count, M: rankMoments[rng.Intn(len(rankMoments))],
			Multi: []stats.Moments{rankMoments[rng.Intn(len(rankMoments))]},
		})
	}
	return items
}

// FuzzRank decodes bytes into itemsets and checks that Rank never panics
// and gives its stable-sort oracle's order at workers 1 and 3. Each
// itemset takes 8 bytes: its length (0–12), its moments, a 3-byte count,
// its first item (2 bytes, so every varint length occurs) and the step
// between its items. The decoded list is tiled, each copy with its
// moments rotated, to three RankChunkMin chunks, so workers 3 sorts and
// merges three chunks.
func FuzzRank(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 5, 0, 0, 0, 1, 0})
	f.Add([]byte{12, 1, 0xff, 0xff, 0x0f, 0x40, 0x9c, 3, 2, 4, 0, 0, 0, 0x80, 0x01, 0})
	rng := rand.New(rand.NewSource(1))
	seed := make([]byte, 8*64)
	rng.Read(seed)
	f.Add(seed)
	o := rankOutcome()
	f.Fuzz(func(t *testing.T, data []byte) {
		var decoded []MinedItemset
		for ; len(data) >= 8; data = data[8:] {
			idx := make([]int, data[0]%13)
			first := int(binary.LittleEndian.Uint16(data[5:7]))
			for j := range idx {
				idx[j] = (first + j*int(data[7])) % (1 << 16)
			}
			slices.Sort(idx)
			decoded = append(decoded, MinedItemset{
				Items: idx,
				Count: int(data[2]) | int(data[3])<<8 | int(data[4])<<16,
				M:     rankMoments[int(data[1])%len(rankMoments)],
			})
		}
		if len(decoded) == 0 {
			return
		}
		items := make([]MinedItemset, 3*RankChunkMin)
		for i := range items {
			m := decoded[i%len(decoded)]
			rot := i / len(decoded)
			m.M = rankMoments[(slices.Index(rankMoments, m.M)+rot)%len(rankMoments)]
			items[i] = m
		}
		checkRank(t, "fuzz", items, 0, o, 1)
		checkRank(t, "fuzz", items, 0, o, 3)
	})
}
