package hdivexplorer

// Determinism and pruning-observability guarantees: exploration output is
// byte-identical regardless of Workers, and the polarity-pruning counters
// report exactly what §V-C pruning removed — with every surviving itemset
// carrying the same statistics as in the complete run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/outcome"
)

// exploreBytes runs the pipeline and renders every subgroup (full float
// precision, via WriteCSV) so runs can be compared byte for byte without
// timing noise.
func exploreBytes(t *testing.T, opt PipelineOptions) ([]byte, *Report) {
	t.Helper()
	d := datagen.Compas(datagen.Config{Seed: 1})
	o := outcome.FalsePositiveRate(d.Actual, d.Predicted)
	rep, err := Pipeline(d.Table, o, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rep
}

// TestExploreDeterministicAcrossWorkers asserts that core.Explore output
// is byte-identical for Workers ∈ {1, 0, 4} (serial first, then the
// default, every core) on the synthetic COMPAS-like
// dataset, for both miners, and that the deterministic trace counters
// (candidates, prunes, itemsets emitted) agree as well. Run under -race
// in CI, this also exercises the parallel mining path for data races.
func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	deterministicCounters := []string{
		obs.CtrCandidates, obs.CtrPrunedSupport, obs.CtrPrunedPolarity, obs.CtrItemsetsEmitted,
	}
	for _, alg := range []Algorithm{FPGrowth, Apriori} {
		t.Run(alg.String(), func(t *testing.T) {
			var refBytes []byte
			refCounters := map[string]int64{}
			for _, workers := range []int{1, 0, 4} {
				tr := NewTracer()
				got, rep := exploreBytes(t, PipelineOptions{
					TreeSupport: 0.1, MinSupport: 0.05,
					Algorithm: alg, Workers: workers, Tracer: tr,
				})
				if rep.Trace == nil {
					t.Fatalf("workers=%d: Report.Trace not populated", workers)
				}
				if workers == 1 {
					refBytes = got
					for _, c := range deterministicCounters {
						refCounters[c] = rep.Trace.Counter(c)
					}
					continue
				}
				if !bytes.Equal(got, refBytes) {
					t.Errorf("workers=%d: output differs from serial run", workers)
				}
				for _, c := range deterministicCounters {
					if v := rep.Trace.Counter(c); v != refCounters[c] {
						t.Errorf("workers=%d: counter %s = %d, want %d", workers, c, v, refCounters[c])
					}
				}
				// Worker utilization must be observable: the per-worker task
				// counters of parallelFor sum to a positive task count.
				if workers > 1 {
					var tasks int64
					for name, v := range rep.Trace.Counters {
						if len(name) > len(obs.CtrWorkerTaskPrefix) && name[:len(obs.CtrWorkerTaskPrefix)] == obs.CtrWorkerTaskPrefix {
							tasks += v
						}
					}
					if tasks == 0 {
						t.Errorf("workers=%d: no worker task counters recorded", workers)
					}
				}
			}
		})
	}
}

// TestExplainDeterministicAcrossWorkersShards extends the determinism
// guarantee to explain profiles: the Deterministic() view — stage tree
// shape, mining counters, shard loads, skew and budget rows, with all
// measured timing fields stripped — is byte-identical across Workers ∈
// {1, 0, 4} (serial first) for each fixed shard layout, and the mining
// counters agree across shard layouts too. The full profile must also
// satisfy the measurement contract on a live run: self times sum exactly
// to the total.
func TestExplainDeterministicAcrossWorkersShards(t *testing.T) {
	for _, alg := range []Algorithm{FPGrowth, Apriori} {
		t.Run(alg.String(), func(t *testing.T) {
			var refMining []byte
			for _, shards := range []int{1, 4} {
				var ref []byte
				for _, workers := range []int{1, 0, 4} {
					_, rep := exploreBytes(t, PipelineOptions{
						TreeSupport: 0.1, MinSupport: 0.05,
						Algorithm: alg, Workers: workers, Shards: shards,
						Explain: true,
					})
					if rep.Explain == nil {
						t.Fatalf("shards=%d workers=%d: Report.Explain not populated", shards, workers)
					}
					got, err := json.Marshal(rep.Explain.Deterministic())
					if err != nil {
						t.Fatal(err)
					}
					if ref == nil {
						ref = got
					} else if !bytes.Equal(got, ref) {
						t.Errorf("shards=%d workers=%d: deterministic explain differs from serial run:\n%s\nvs\n%s",
							shards, workers, got, ref)
					}
					mining, err := json.Marshal(rep.Explain.Mining)
					if err != nil {
						t.Fatal(err)
					}
					if refMining == nil {
						refMining = mining
					} else if !bytes.Equal(mining, refMining) {
						t.Errorf("shards=%d workers=%d: mining counters differ across shard layouts: %s vs %s",
							shards, workers, mining, refMining)
					}

					// Measurement contract on the full (non-deterministic)
					// profile: the self-time columns account for the whole
					// run.
					var selfSum int64
					for _, st := range rep.Explain.Stages {
						selfSum += st.SelfNS
					}
					if selfSum != rep.Explain.TotalNS {
						t.Errorf("shards=%d workers=%d: sum(SelfNS)=%d != TotalNS=%d",
							shards, workers, selfSum, rep.Explain.TotalNS)
					}
				}
			}
		})
	}
}

// TestPolarityPruneCounters asserts the §V-C observability contract: the
// pruned-by-polarity counter is zero with pruning off, positive with
// pruning on, and every itemset that survives pruning carries statistics
// identical to the complete run's.
func TestPolarityPruneCounters(t *testing.T) {
	for _, alg := range []Algorithm{FPGrowth, Apriori} {
		t.Run(alg.String(), func(t *testing.T) {
			trOff := NewTracer()
			_, off := exploreBytes(t, PipelineOptions{
				TreeSupport: 0.1, MinSupport: 0.05, Algorithm: alg, Tracer: trOff,
			})
			trOn := NewTracer()
			_, on := exploreBytes(t, PipelineOptions{
				TreeSupport: 0.1, MinSupport: 0.05, Algorithm: alg,
				PolarityPrune: true, Tracer: trOn,
			})

			if v := off.Trace.Counter(obs.CtrPrunedPolarity); v != 0 {
				t.Errorf("pruning off: fpm.pruned_polarity = %d, want 0", v)
			}
			if v := on.Trace.Counter(obs.CtrPrunedPolarity); v <= 0 {
				t.Errorf("pruning on: fpm.pruned_polarity = %d, want > 0", v)
			}
			if off.Mining.PrunedPolarity != 0 || on.Mining.PrunedPolarity <= 0 {
				t.Errorf("MiningStats.PrunedPolarity: off=%d on=%d",
					off.Mining.PrunedPolarity, on.Mining.PrunedPolarity)
			}

			// Soundness: pruning only removes itemsets, never alters one.
			complete := map[string]string{}
			for i := range off.Subgroups {
				sg := &off.Subgroups[i]
				complete[sg.Itemset.String()] = fmt.Sprintf("%d|%v|%v", sg.Count, sg.Statistic, sg.Divergence)
			}
			for i := range on.Subgroups {
				sg := &on.Subgroups[i]
				want, ok := complete[sg.Itemset.String()]
				if !ok {
					t.Errorf("pruned run mined %s, absent from complete run", sg.Itemset)
					continue
				}
				if got := fmt.Sprintf("%d|%v|%v", sg.Count, sg.Statistic, sg.Divergence); got != want {
					t.Errorf("%s: stats differ under pruning: %s vs %s", sg.Itemset, got, want)
				}
			}
			if len(on.Subgroups) > len(off.Subgroups) {
				t.Errorf("pruned run mined more itemsets (%d) than complete (%d)",
					len(on.Subgroups), len(off.Subgroups))
			}
		})
	}
}

// TestExploreDeterministicAcrossShards extends the determinism guarantee
// to the sharded data plane: ranked output is byte-identical for Shards ∈
// {1, 4, 16} × Workers ∈ {1, 0, 4}, for both miners, and the shard gauge
// records the layout actually used. The FPR outcome is 0/1-valued, so
// shard merges are exact and equality must hold bitwise.
func TestExploreDeterministicAcrossShards(t *testing.T) {
	for _, alg := range []Algorithm{FPGrowth, Apriori} {
		t.Run(alg.String(), func(t *testing.T) {
			var refBytes []byte
			for _, shards := range []int{1, 4, 16} {
				for _, workers := range []int{1, 0, 4} {
					tr := NewTracer()
					got, rep := exploreBytes(t, PipelineOptions{
						TreeSupport: 0.1, MinSupport: 0.05,
						Algorithm: alg, Workers: workers, Shards: shards, Tracer: tr,
					})
					if refBytes == nil {
						refBytes = got
						continue
					}
					if !bytes.Equal(got, refBytes) {
						t.Errorf("shards=%d workers=%d: output differs from shards=1 serial run",
							shards, workers)
					}
					if g := rep.Trace.Gauges[obs.GaugeShards]; g != float64(shards) {
						t.Errorf("shards=%d workers=%d: %s gauge = %v", shards, workers, obs.GaugeShards, g)
					}
				}
			}
			// The sharded layouts must also match the default plan.
			tr := NewTracer()
			got, _ := exploreBytes(t, PipelineOptions{
				TreeSupport: 0.1, MinSupport: 0.05, Algorithm: alg, Tracer: tr,
			})
			if !bytes.Equal(got, refBytes) {
				t.Errorf("default shard layout differs from explicit layouts")
			}
		})
	}
}

// TestExploreMultiMatchesIndependentRuns is the single-pass bundle
// guarantee end to end: ExploreMulti over {FPR, FNR, error} renders every
// report byte-identical to an independent Explore of the same statistic
// over the same hierarchies — one mining pass replaces three with no
// observable difference.
func TestExploreMultiMatchesIndependentRuns(t *testing.T) {
	d := datagen.Compas(datagen.Config{Seed: 1})
	outs := []*Outcome{
		outcome.FalsePositiveRate(d.Actual, d.Predicted),
		outcome.FalseNegativeRate(d.Actual, d.Predicted),
		outcome.ErrorRate(d.Actual, d.Predicted),
	}
	// Discretize once against the primary — the hierarchy set ExploreMulti
	// itself would build — so the independent runs share the lattice.
	hs, err := TreeSet(d.Table, outs[0], TreeOptions{MinSupport: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range d.Table.Fields() {
		if f.Kind == Categorical {
			hs.Add(FlatCategorical(d.Table, f.Name))
		}
	}
	b, err := NewOutcomeBundle(outs...)
	if err != nil {
		t.Fatal(err)
	}

	csv := func(rep *Report) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := rep.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	for _, alg := range []Algorithm{FPGrowth, Apriori} {
		for _, shards := range []int{0, 4} {
			cfg := ExploreConfig{
				Hierarchies: hs, MinSupport: 0.05,
				Algorithm: alg, Shards: shards,
			}
			reps, err := ExploreMulti(d.Table, cfg, b)
			if err != nil {
				t.Fatal(err)
			}
			if len(reps) != len(outs) {
				t.Fatalf("%s shards=%d: %d reports, want %d", alg, shards, len(reps), len(outs))
			}
			for k, o := range outs {
				scfg := cfg
				scfg.Outcome = o
				single, err := Explore(d.Table, scfg)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(csv(reps[k]), csv(single)) {
					t.Errorf("%s shards=%d: %s report differs from independent Explore",
						alg, shards, o.Name)
				}
				if reps[k].Global != single.Global {
					t.Errorf("%s shards=%d: %s global %v vs %v",
						alg, shards, o.Name, reps[k].Global, single.Global)
				}
			}
		}
	}
}

// TestPipelineMultiSingleIsPipeline asserts a bundle of one is the
// single-statistic pipeline, byte for byte.
func TestPipelineMultiSingleIsPipeline(t *testing.T) {
	d := datagen.Compas(datagen.Config{Seed: 1})
	o := outcome.FalsePositiveRate(d.Actual, d.Predicted)
	opt := PipelineOptions{TreeSupport: 0.1, MinSupport: 0.05}

	want, _ := exploreBytes(t, opt)
	b, err := NewOutcomeBundle(o)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := PipelineMulti(d.Table, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 {
		t.Fatalf("%d reports, want 1", len(reps))
	}
	var buf bytes.Buffer
	if err := reps[0].WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("PipelineMulti bundle-of-1 differs from Pipeline")
	}
}
