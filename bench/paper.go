package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/experiments"
	"repro/internal/fpm"
	"repro/internal/hierarchy"
)

// paperDataSeed generates paper-sweep's seven datasets. The paper
// evaluates on fixed datasets, and the sweep's cost follows the lattice
// size, which the data decide: over data seeds 1–10 one Figure 2 sweep
// took 5.2–10.2 s on the same machine, a spread no regression bound can
// absorb. So the data stay fixed and --seed orders the explorations of
// every sweep.
const paperDataSeed = 1

// paperData is one of the seven classification workloads, ready to
// explore.
type paperData struct {
	w  *experiments.Workload
	hs *hierarchy.Set
}

// loadPaper is paper-sweep's set-up: data generation and forest training
// (experiments.Load) and tree discretization (Workload.Hierarchies at
// st 0.1, divergence gain) for every classification dataset.
func loadPaper(sizes map[string]int, rec *recorder, parent, op int) ([]paperData, error) {
	var out []paperData
	for _, name := range experiments.ClassificationNames {
		w, err := experiments.Load(name, experiments.Config{Seed: paperDataSeed, SizeOverride: sizes})
		if err != nil {
			return nil, err
		}
		id := rec.begin("discretize.tree_set", parent, op)
		hs, err := w.Hierarchies(0.1, discretize.DivergenceGain)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		out = append(out, paperData{w: w, hs: hs})
	}
	return out, nil
}

// cell is one Figure 2 exploration: a dataset at one support, in one mode.
type cell struct {
	d    *paperData
	s    float64
	mode core.Mode
}

func (c cell) String() string {
	return fmt.Sprintf("%s s=%g %s", c.d.w.Name, c.s, c.mode)
}

func (c cell) config() core.Config {
	return core.Config{Outcome: c.d.w.Outcome, Hierarchies: c.d.hs, MinSupport: c.s, Mode: c.mode}
}

// sweepCells lists the Figure 2 grid: SweepSupports × {base,
// hierarchical} for every dataset.
func sweepCells(ds []paperData) []cell {
	var out []cell
	for i := range ds {
		for _, s := range experiments.SweepSupports {
			for _, m := range []core.Mode{core.Base, core.Hierarchical} {
				out = append(out, cell{d: &ds[i], s: s, mode: m})
			}
		}
	}
	return out
}

// paperSweep runs the paper's Figure 2 sweep in process: whole sweeps of
// the 56 explorations, each sweep in a fresh seeded order, until the next
// sweep would end past the measured time (at least scale.minSweeps).
// Checks: hierarchical max|Δ| ≥ base max|Δ| in every cell, every cell's
// ranked output identical across sweeps, and Apriori equal to FP-Growth
// on the s = 0.2 cells.
func paperSweep(ctx context.Context, cfg config, t *tally) (measured, error) {
	sc := cfg.scale
	var setups []float64
	var ds []paperData
	for i := 0; i < sc.paperSetups; i++ {
		ds = nil // let the previous set-up's data go before timing the next
		start := time.Now()
		var err error
		if ds, err = loadPaper(sc.paperSizes, nil, -1, 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	cells := sweepCells(ds)
	rng := rand.New(rand.NewSource(cfg.seed))
	type outcomeOf struct {
		sum    [32]byte
		maxAbs float64
	}
	first := make([]outcomeOf, len(cells))
	best := make([]float64, len(cells)) // each cell's fastest call of the first minSweeps sweeps
	var lat, sweeps []float64
	spent := 0.0
	for sweep := 0; ; sweep++ {
		took := 0.0
		for _, ci := range rng.Perm(len(cells)) {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			c := cells[ci]
			start := time.Now()
			rep, err := core.Explore(c.d.w.Table, c.config())
			d := time.Since(start)
			t.op(err)
			if err != nil {
				continue
			}
			lat = append(lat, ms(d))
			if sweep < sc.minSweeps && (sweep == 0 || ms(d) < best[ci]) {
				best[ci] = ms(d)
			}
			took += d.Seconds()
			sum := rankedSum(rep)
			if sweep == 0 {
				first[ci] = outcomeOf{sum: sum, maxAbs: rep.MaxAbsDivergence()}
			} else {
				t.check(sum == first[ci].sum, "%s: ranked output differs between sweep 1 and sweep %d", c, sweep+1)
			}
		}
		sweeps = append(sweeps, took)
		spent += took
		if len(sweeps) >= sc.minSweeps && spent+took > cfg.seconds.Seconds() {
			break
		}
	}
	for i := 0; i+1 < len(cells); i += 2 {
		base := cells[i] // sweepCells puts each base cell right before its hierarchical twin
		t.check(first[i+1].maxAbs >= first[i].maxAbs,
			"%s s=%g: hierarchical max|Δ| %g below base %g", base.d.w.Name, base.s, first[i+1].maxAbs, first[i].maxAbs)
	}
	for i, c := range cells {
		if c.s != 0.2 {
			continue
		}
		conf := c.config()
		conf.Algorithm = fpm.Apriori
		rep, err := core.Explore(c.d.w.Table, conf)
		if err != nil {
			t.check(false, "%s apriori: %v", c, err)
			continue
		}
		t.check(rankedSum(rep) == first[i].sum, "%s: Apriori and FP-Growth ranked outputs differ", c)
	}
	m := measured{
		"setup_s":      median(setups),
		"explore_rate": float64(len(lat)) / sum(sweeps),
		"sweep_s":      median(sweeps),
	}
	if err := latencyMetrics(m, "explore", lat, true); err != nil {
		return nil, err
	}
	// The median call is a short one, which a disturbance from outside it,
	// such as a collection a heavier call before it set off, slows most;
	// which call meets one follows the seeded order, not the code. So
	// explore_p50_ms is the median over the cells of each cell's faster
	// call of the first minSweeps sweeps, which every run has (README.md
	// has the spreads). Disturbances still count in explore_rate.
	m["explore_p50_ms"] = median(best)
	rss, err := vmHWM("/proc/self/status")
	if err != nil {
		return nil, err
	}
	m["peak_rss_mb"] = rss
	m["fail_rate"] = failRate(t)
	return m, nil
}

// rankedSum is the SHA-256 of a report's ranked output: per subgroup in
// rank order, its item indices, count, and the float64 bits of support,
// statistic, divergence and t. That is every field the ranked CSV renders
// (the itemset text follows from the item indices, the p-value from t and
// the count), at a tenth of the cost of rendering a CSV of up to 600 000
// rows.
func rankedSum(rep *core.Report) [32]byte {
	h := sha256.New()
	var buf []byte
	for i := range rep.Subgroups {
		sg := &rep.Subgroups[i]
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(sg.ItemIdx)))
		for _, it := range sg.ItemIdx {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(it))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sg.Count))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sg.Support))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sg.Statistic))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sg.Divergence))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sg.T))
		h.Write(buf)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// latencyMetrics stores <prefix>_p50_ms and <prefix>_p90_ms. The p90 is
// informational: its run-to-run spread exceeds any bound the benchmark
// could declare (README.md). A required p50 the samples cannot support
// fails the run; a percentile that is not required is left out.
func latencyMetrics(m measured, prefix string, lat []float64, requireP50 bool) error {
	for _, p := range []struct {
		q    float64
		name string
	}{{0.5, "_p50_ms"}, {0.9, "_p90_ms"}} {
		v, err := percentile(lat, p.q)
		if err != nil {
			if requireP50 && p.q == 0.5 {
				return fmt.Errorf("%s%s: %w", prefix, p.name, err)
			}
			fmt.Fprintf(os.Stderr, "bench: %s%s not reported: %v\n", prefix, p.name, err)
			continue
		}
		m[prefix+p.name] = v
	}
	return nil
}

func failRate(t *tally) float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
