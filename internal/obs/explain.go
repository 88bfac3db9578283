package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Explain is the query-level cost-attribution report: one exploration's
// trace reduced to per-stage self/cumulative wall time, the mining
// counters, per-worker utilization, cache outcome and budget
// consumption.
// Build one with NewExplain from any *Trace; the CLI's -explain flag,
// the server's `"explain": true` request field and GET /v1/explain/{id}
// all serve this struct.
//
// Determinism contract: for a fixed dataset and statistic, every field
// except the timing measurements (TotalNS, stage durations, worker split,
// deadline/heap budget rows) is a pure function of the input —
// byte-identical across worker counts. Deterministic() strips the
// measured fields so tests can compare profiles across worker counts
// directly.
type Explain struct {
	RequestID string `json:"request_id,omitempty"`
	// TotalNS is the summed wall time of the trace's root spans.
	TotalNS int64           `json:"total_ns,omitempty"`
	Stages  []ExplainStage  `json:"stages"`
	Mining  ExplainMining   `json:"mining"`
	Workers []ExplainWorker `json:"workers,omitempty"`
	Cache   *ExplainCache   `json:"cache,omitempty"`
	Budget  []ExplainBudget `json:"budget,omitempty"`
	// Memory reports the run's buffer-pool effectiveness and the
	// universe's row-set representation mix; nil when the trace carries
	// neither signal (e.g. a trace from before mining ran).
	Memory *ExplainMemory `json:"memory,omitempty"`
}

// ExplainStage is one span of the trace in tree (pre-order) position:
// cumulative time over the whole subtree plus the self portion not
// covered by child spans.
type ExplainStage struct {
	Name  string `json:"name"`
	Depth int    `json:"depth"`
	// TotalNS is the span's inclusive wall time; SelfNS excludes child
	// spans. SelfFrac is SelfNS over the profile's TotalNS.
	TotalNS    int64   `json:"total_ns"`
	SelfNS     int64   `json:"self_ns"`
	SelfFrac   float64 `json:"self_frac"`
	Unfinished bool    `json:"unfinished,omitempty"`
}

// ExplainMining aggregates the miner's candidate-flow counters.
type ExplainMining struct {
	Candidates     int64 `json:"candidates"`
	PrunedSupport  int64 `json:"pruned_support"`
	PrunedPolarity int64 `json:"pruned_polarity"`
	Itemsets       int64 `json:"itemsets_emitted"`
}

// ExplainWorker is one ParallelFor worker's share of the run's mining:
// the tasks it completed, nondeterministic (scheduling-dependent).
type ExplainWorker struct {
	Index int   `json:"index"`
	Tasks int64 `json:"tasks"`
}

// ExplainCache reports the universe-cache outcome of a server-side
// exploration; nil for CLI runs (no cache in front of the pipeline).
type ExplainCache struct {
	Hit bool `json:"hit"`
}

// ExplainMemory reports the memory behaviour of a mining run: the run
// pool's hit/miss split (measured — GC and scheduling dependent) and the
// universe's row-set representation statistics (deterministic for a fixed
// dataset and item set: how many items stayed dense vectors vs compressed
// bitmaps, the compressed container mix, and the byte footprint against
// the all-dense equivalent). See DESIGN.md §11.
type ExplainMemory struct {
	PoolHits    int64   `json:"pool_hits"`
	PoolMisses  int64   `json:"pool_misses"`
	PoolHitRate float64 `json:"pool_hit_rate"`

	ItemsDense         int64 `json:"items_dense"`
	ItemsCompressed    int64 `json:"items_compressed"`
	ContainersArray    int64 `json:"containers_array,omitempty"`
	ContainersBitmap   int64 `json:"containers_bitmap,omitempty"`
	ContainersRun      int64 `json:"containers_run,omitempty"`
	UniverseBytes      int64 `json:"universe_bytes"`
	UniverseDenseBytes int64 `json:"universe_dense_bytes"`
}

// ExplainBudget is one resource dimension's consumption against its
// configured limit. Frac is Used/Limit clamped to [0, 1].
type ExplainBudget struct {
	Dimension string  `json:"dimension"`
	Used      int64   `json:"used"`
	Limit     int64   `json:"limit"`
	Frac      float64 `json:"frac"`
	Exhausted bool    `json:"exhausted,omitempty"`
}

// NewExplain reduces a trace snapshot to an Explain profile. Pure
// function of the trace; returns nil on a nil trace.
func NewExplain(tr *Trace) *Explain {
	if tr == nil {
		return nil
	}
	e := &Explain{RequestID: tr.ID}

	// Stage tree: pre-order walk; self = inclusive − Σ(children), so the
	// SelfNS column sums exactly to TotalNS across the whole profile.
	children := map[int][]int{}
	for i := range tr.Spans {
		children[tr.Spans[i].Parent] = append(children[tr.Spans[i].Parent], i)
	}
	var walk func(id, depth int)
	walk = func(id, depth int) {
		s := &tr.Spans[id]
		st := ExplainStage{
			Name: s.Name, Depth: depth,
			TotalNS: s.DurNS, SelfNS: s.DurNS,
			Unfinished: s.Unfinished,
		}
		for _, c := range children[id] {
			st.SelfNS -= tr.Spans[c].DurNS
		}
		// Concurrent children can over-subtract (their wall times
		// overlap); floor rather than report a negative self time.
		if st.SelfNS < 0 {
			st.SelfNS = 0
		}
		e.Stages = append(e.Stages, st)
		for _, c := range children[id] {
			walk(c, depth+1)
		}
	}
	for _, id := range children[-1] {
		e.TotalNS += tr.Spans[id].DurNS
		walk(id, 0)
	}
	if e.TotalNS > 0 {
		for i := range e.Stages {
			e.Stages[i].SelfFrac = float64(e.Stages[i].SelfNS) / float64(e.TotalNS)
		}
	}

	e.Mining = ExplainMining{
		Candidates:     tr.Counter(CtrCandidates),
		PrunedSupport:  tr.Counter(CtrPrunedSupport),
		PrunedPolarity: tr.Counter(CtrPrunedPolarity),
		Itemsets:       tr.Counter(CtrItemsetsEmitted),
	}

	for name, v := range tr.Counters {
		if i, ok := indexSuffix(name, CtrWorkerTaskPrefix); ok {
			e.Workers = append(e.Workers, ExplainWorker{Index: i, Tasks: v})
		}
	}
	sort.Slice(e.Workers, func(i, j int) bool { return e.Workers[i].Index < e.Workers[j].Index })

	if v, ok := tr.Gauges[GaugeCacheHit]; ok {
		e.Cache = &ExplainCache{Hit: v != 0}
	}

	// Budget consumption: one row per dimension with a configured limit.
	// "candidates" and "itemsets" are deterministic; "deadline" and "heap"
	// are measured and excluded from Deterministic().
	addBudget := func(dim string, used, limit int64) {
		if limit <= 0 {
			return
		}
		frac := float64(used) / float64(limit)
		if frac > 1 {
			frac = 1
		}
		if frac < 0 {
			frac = 0
		}
		e.Budget = append(e.Budget, ExplainBudget{
			Dimension: dim, Used: used, Limit: limit, Frac: frac,
			Exhausted: tr.Counter(CtrBudgetExhaustedPrefix+dim) > 0,
		})
	}
	addBudget("candidates", e.Mining.Candidates, int64(tr.Gauges[GaugeBudgetMaxCandidates]))
	addBudget("itemsets", e.Mining.Itemsets, int64(tr.Gauges[GaugeBudgetMaxItemsets]))
	if mine := tr.Span(SpanMine); mine != nil {
		addBudget("deadline", mine.DurNS, int64(tr.Gauges[GaugeBudgetSoftDeadlineNS]))
	}
	addBudget("heap", int64(tr.Gauges[GaugeBudgetHeapBytes]), int64(tr.Gauges[GaugeBudgetMaxHeapBytes]))

	// Memory section: present whenever the trace saw the pool counters or
	// the universe representation gauges.
	hits, misses := tr.Counter(CtrPoolHits), tr.Counter(CtrPoolMisses)
	_, sawItems := tr.Gauges[GaugeItemsDense]
	if hits > 0 || misses > 0 || sawItems {
		m := &ExplainMemory{
			PoolHits:           hits,
			PoolMisses:         misses,
			ItemsDense:         int64(tr.Gauges[GaugeItemsDense]),
			ItemsCompressed:    int64(tr.Gauges[GaugeItemsCompressed]),
			ContainersArray:    int64(tr.Gauges[GaugeContainersArray]),
			ContainersBitmap:   int64(tr.Gauges[GaugeContainersBitmap]),
			ContainersRun:      int64(tr.Gauges[GaugeContainersRun]),
			UniverseBytes:      int64(tr.Gauges[GaugeUniverseBytes]),
			UniverseDenseBytes: int64(tr.Gauges[GaugeUniverseDenseBytes]),
		}
		if total := hits + misses; total > 0 {
			m.PoolHitRate = float64(hits) / float64(total)
		}
		e.Memory = m
	}
	return e
}

// indexSuffix parses the integer suffix of name after prefix, reporting
// whether name matched the prefix with a valid non-negative index.
func indexSuffix(name, prefix string) (int, bool) {
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	i, err := strconv.Atoi(name[len(prefix):])
	if err != nil || i < 0 {
		return 0, false
	}
	return i, true
}

// Deterministic returns a copy of the profile with every measured
// (timing, scheduling) field stripped: stage durations, the worker split, the randomly drawn request id,
// and the deadline/heap budget rows. What remains — stage names and
// tree shape, mining counters, cache outcome, candidate/itemset budget
// consumption — is byte-identical across worker counts and across
// requests for a fixed dataset and statistic.
func (e *Explain) Deterministic() *Explain {
	if e == nil {
		return nil
	}
	d := &Explain{Mining: e.Mining}
	if e.Cache != nil {
		c := *e.Cache
		d.Cache = &c
	}
	for _, st := range e.Stages {
		d.Stages = append(d.Stages, ExplainStage{Name: st.Name, Depth: st.Depth})
	}
	for _, b := range e.Budget {
		if b.Dimension == "deadline" || b.Dimension == "heap" {
			continue
		}
		d.Budget = append(d.Budget, b)
	}
	// Representation statistics are a pure function of the input; the pool
	// split depends on GC timing and worker interleaving, so it is
	// stripped like the other measured fields.
	if e.Memory != nil {
		m := *e.Memory
		m.PoolHits, m.PoolMisses, m.PoolHitRate = 0, 0, 0
		d.Memory = &m
	}
	return d
}

// WriteJSON writes the profile as indented JSON followed by a newline.
func (e *Explain) WriteJSON(w io.Writer) error {
	raw, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(raw, '\n'))
	return err
}

// Text renders the profile as the human-readable -explain report: a
// stage table (total, self, self-% of wall time), the
// mining counters, worker utilization, cache outcome and budget
// consumption.
func (e *Explain) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "explain")
	if e.RequestID != "" {
		fmt.Fprintf(&b, " %s", e.RequestID)
	}
	fmt.Fprintf(&b, ": total %s\n", fmtDuration(time.Duration(e.TotalNS)))
	fmt.Fprintf(&b, "%-44s %10s %10s %6s\n", "stage", "total", "self", "self%")
	for _, st := range e.Stages {
		mark := ""
		if st.Unfinished {
			mark = " (unfinished)"
		}
		fmt.Fprintf(&b, "%-44s %10s %10s %5.1f%%%s\n",
			strings.Repeat("  ", st.Depth)+st.Name,
			fmtDuration(time.Duration(st.TotalNS)),
			fmtDuration(time.Duration(st.SelfNS)),
			st.SelfFrac*100, mark)
	}
	fmt.Fprintf(&b, "mining: candidates=%d pruned_support=%d pruned_polarity=%d itemsets=%d\n",
		e.Mining.Candidates, e.Mining.PrunedSupport, e.Mining.PrunedPolarity, e.Mining.Itemsets)
	if len(e.Workers) > 0 {
		b.WriteString("workers:\n")
		for _, w := range e.Workers {
			fmt.Fprintf(&b, "  w%-3d tasks=%d\n", w.Index, w.Tasks)
		}
	}
	if e.Cache != nil {
		if e.Cache.Hit {
			b.WriteString("cache: hit\n")
		} else {
			b.WriteString("cache: miss\n")
		}
	}
	for _, bu := range e.Budget {
		mark := ""
		if bu.Exhausted {
			mark = " EXHAUSTED"
		}
		fmt.Fprintf(&b, "budget: %-10s %d/%d (%.1f%%)%s\n",
			bu.Dimension, bu.Used, bu.Limit, bu.Frac*100, mark)
	}
	if m := e.Memory; m != nil {
		fmt.Fprintf(&b, "memory: pool hits=%d misses=%d (%.1f%% reuse)\n",
			m.PoolHits, m.PoolMisses, m.PoolHitRate*100)
		fmt.Fprintf(&b, "  items: dense=%d compressed=%d", m.ItemsDense, m.ItemsCompressed)
		if m.ItemsCompressed > 0 {
			fmt.Fprintf(&b, " (containers: array=%d bitmap=%d run=%d)",
				m.ContainersArray, m.ContainersBitmap, m.ContainersRun)
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "  universe: %s held vs %s all-dense\n",
			fmtBytes(m.UniverseBytes), fmtBytes(m.UniverseDenseBytes))
	}
	return b.String()
}
