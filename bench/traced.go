package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/fpm"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/outcome"
	"repro/internal/server"
	"repro/internal/wal"
)

// A traced run replays the workload's seeded operations in process, with
// spans around the public calls internal/server (or the paper sweep)
// makes, composed the way the server composes them. Layers the workload's
// own operations never reach are exercised afterwards by probes on the
// workload's data, recorded on a separate lane, so every per-layer metric
// exists on every workload; README.md marks which are on each workload's
// path. End-to-end numbers never come from a traced run.

// tracedRun is the state of one traced run.
type tracedRun struct {
	cfg    config
	t      *tally
	replay *recorder // the workload's own operations
	probe  *recorder // probes of layers the replay did not reach
	op     int

	table   *dataset.Table // the workload's probe table
	csvPath string         // its CSV, when the workload serves one

	mining    []fpm.MiningStats // replayed explorations
	uniBytes  []float64         // replayed universe builds
	universes []*fpm.Universe   // hierarchical universes for the bitvec probe
	redo      []func(rec *recorder) error
	walDir    string // the log the live path wrote, for the replay probe
}

// maxKeptUniverses bounds the universes kept for the bitvec probe.
const maxKeptUniverses = 8

func (tr *tracedRun) nextOp() int {
	tr.op++
	return tr.op
}

func runTraced(ctx context.Context, cfg config, name string, t *tally) (measured, error) {
	origin := time.Now()
	tr := &tracedRun{cfg: cfg, t: t, replay: newRecorder(origin), probe: newRecorder(origin)}
	var err error
	switch name {
	case "paper-sweep":
		err = tr.paperReplay(ctx)
	case "warm-explore":
		err = tr.warmReplay(ctx)
	case "cold-explore":
		err = tr.coldReplay(ctx)
	case "live-append":
		err = tr.liveReplay(ctx)
	default:
		err = fmt.Errorf("unknown workload")
	}
	if err != nil {
		return nil, err
	}
	m := measured{}
	if err := tr.probes(ctx, m); err != nil {
		return nil, err
	}
	tr.layerMetrics(m)
	f, err := os.Create(filepath.Join(cfg.out, name+".trace.json"))
	if err != nil {
		return nil, err
	}
	if err := writeChrome(f, []string{name + " replay", name + " probes"}, tr.replay, tr.probe); err != nil {
		f.Close()
		return nil, err
	}
	return m, f.Close()
}

// entry mirrors one universe-cache entry of internal/server: the table
// snapshot, the statistic, the hierarchies and both universes.
type entry struct {
	tab *dataset.Table
	out *outcome.Outcome
	hs  *hierarchy.Set
	uni map[core.Mode]*fpm.Universe
}

// build mirrors the server's cache fill (buildEntry): statistic, tree
// discretization, flat hierarchies for the other categorical columns,
// then the hierarchical and the base universe.
func (tr *tracedRun) build(rec *recorder, parent, op int, tab *dataset.Table, sh shape) (*entry, error) {
	id := rec.begin("core.build_statistic", parent, op)
	out, excludes, err := core.BuildStatistic(tab, sh.Stat, actualCol, predCol, "")
	rec.end(id)
	if err != nil {
		return nil, err
	}
	crit := discretize.DivergenceGain
	if sh.Criterion == "entropy" {
		crit = discretize.EntropyGain
	}
	st := sh.ST
	if st == 0 {
		st = 0.1
	}
	id = rec.begin("discretize.tree_set", parent, op)
	hs, err := discretize.TreeSet(tab, out, discretize.TreeOptions{Criterion: crit, MinSupport: st}, excludes...)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	skip := map[string]bool{}
	for _, x := range excludes {
		skip[x] = true
	}
	for _, f := range tab.Fields() {
		if f.Kind == dataset.Categorical && !skip[f.Name] {
			hs.Add(hierarchy.FlatCategorical(tab, f.Name))
		}
	}
	e := &entry{tab: tab, out: out, hs: hs, uni: map[core.Mode]*fpm.Universe{}}
	for _, mode := range []core.Mode{core.Hierarchical, core.Base} {
		id = rec.begin("fpm.universe", parent, op)
		if mode == core.Hierarchical {
			e.uni[mode] = fpm.GeneralizedUniverse(tab, hs, out)
		} else {
			e.uni[mode] = fpm.BaseUniverse(tab, hs, out)
		}
		rec.end(id)
		tr.noteUniverse(rec, e.uni[mode], mode)
	}
	return e, nil
}

func (tr *tracedRun) noteUniverse(rec *recorder, u *fpm.Universe, mode core.Mode) {
	if rec != tr.replay {
		return
	}
	tr.uniBytes = append(tr.uniBytes, float64(u.Memory().Bytes)/1e6)
	if mode == core.Hierarchical && len(tr.universes) < maxKeptUniverses {
		tr.universes = append(tr.universes, u)
	}
}

// grow mirrors the server's incremental epoch build (appendEntry): the
// statistic over the grown table and both universes extended by the
// appended rows, discretization kept.
func (tr *tracedRun) grow(rec *recorder, parent, op int, tab *dataset.Table, prior *entry, sh shape) (*entry, error) {
	id := rec.begin("core.build_statistic", parent, op)
	out, _, err := core.BuildStatistic(tab, sh.Stat, actualCol, predCol, "")
	rec.end(id)
	if err != nil {
		return nil, err
	}
	e := &entry{tab: tab, out: out, hs: prior.hs, uni: map[core.Mode]*fpm.Universe{}}
	for _, mode := range []core.Mode{core.Hierarchical, core.Base} {
		id = rec.begin("fpm.append_universe", parent, op)
		u, err := fpm.AppendUniverse(tab, prior.uni[mode], out)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		e.uni[mode] = u
	}
	return e, nil
}

// canGrow mirrors the server's KS gate (canAppend at the default drift
// threshold 0.2): the old table must be a prefix with the same
// categorical levels, and every continuous column's appended rows must
// stay within the drift threshold of the rows before them.
func canGrow(rec *recorder, parent, op int, old, cur *dataset.Table) bool {
	oldN := old.NumRows()
	if cur.NumRows() < oldN {
		return false
	}
	for _, f := range cur.Fields() {
		if f.Kind == dataset.Categorical {
			if len(cur.Levels(f.Name)) != len(old.Levels(f.Name)) {
				return false
			}
			continue
		}
		vals := cur.Floats(f.Name)
		id := rec.begin("discretize.ks_drift", parent, op)
		drift := discretize.KSDrift(vals[:oldN], vals[oldN:])
		rec.end(id)
		if drift > 0.2 {
			return false
		}
	}
	return true
}

// explore mirrors the server's exploration of a cached entry: one mining
// pass (core.ExploreUniverseMultiContext over a bundle of one), top-k,
// and the indented JSON reply. The mining interval the report's Elapsed
// accounts for becomes an fpm.mine span, the rest of the call core.rank.
func (tr *tracedRun) explore(ctx context.Context, rec *recorder, parent, op int, e *entry, mode core.Mode, sh shape, encode bool) error {
	bundle, err := outcome.NewBundle(e.out)
	if err != nil {
		return err
	}
	id := rec.begin("core.explore", parent, op)
	start := time.Now()
	reps, err := core.ExploreUniverseMultiContext(ctx, e.uni[mode], core.Config{
		Hierarchies: e.hs, MinSupport: sh.S, MaxLen: sh.MaxLen, PolarityPrune: sh.Polarity,
		Mode: mode,
	}, bundle)
	stop := time.Now()
	rec.end(id)
	if err != nil {
		return err
	}
	rep := reps[0]
	rec.add("fpm.mine", id, op, start, start.Add(rep.Elapsed))
	rec.add("core.rank", id, op, start.Add(rep.Elapsed), stop)
	if rec == tr.replay {
		tr.mining = append(tr.mining, rep.Mining)
	}
	if encode {
		rep.Subgroups = rep.TopK(sh.Top)
		id = rec.begin("core.encode", parent, op)
		_, err = json.MarshalIndent(rep, "", "  ")
		rec.end(id)
	}
	return err
}

// readTable writes the table as CSV (untimed) and reads it back the way
// the daemon loads its dataset.
func (tr *tracedRun) readTable(rec *recorder, parent, op int, tab *dataset.Table) (*dataset.Table, error) {
	if tr.csvPath == "" {
		tr.csvPath = filepath.Join(tr.cfg.work, "traced-"+datasetName+".csv")
		if err := tab.WriteCSVFile(tr.csvPath); err != nil {
			return nil, err
		}
	}
	id := rec.begin("dataset.read_csv", parent, op)
	read, err := dataset.ReadCSVFile(tr.csvPath, dataset.CSVOptions{})
	rec.end(id)
	return read, err
}

// paperReplay: the set-up and one sweep in the untraced run's first
// order; each cell is universe build, mining and ranking (core.Explore's
// body) plus the cell's top-10 JSON.
func (tr *tracedRun) paperReplay(ctx context.Context) error {
	sc := tr.cfg.scale
	op := tr.nextOp()
	root := tr.replay.begin("op.setup", -1, op)
	ds, err := loadPaper(sc.paperSizes, tr.replay, root, op)
	tr.replay.end(root)
	if err != nil {
		return err
	}
	tr.table = compasTable(sc.paperProbeRows, paperDataSeed)
	cells := sweepCells(ds)
	runCell := func(rec *recorder, c cell, op int) error {
		root := rec.begin("op.cell", -1, op)
		defer rec.end(root)
		id := rec.begin("fpm.universe", root, op)
		var u *fpm.Universe
		if c.mode == core.Hierarchical {
			u = fpm.GeneralizedUniverse(c.d.w.Table, c.d.hs, c.d.w.Outcome)
		} else {
			u = fpm.BaseUniverse(c.d.w.Table, c.d.hs, c.d.w.Outcome)
		}
		rec.end(id)
		tr.noteUniverse(rec, u, c.mode)
		e := &entry{tab: c.d.w.Table, out: c.d.w.Outcome, hs: c.d.hs, uni: map[core.Mode]*fpm.Universe{c.mode: u}}
		return tr.explore(ctx, rec, root, op, e, c.mode, shape{S: c.s, Top: 10}, true)
	}
	for _, ci := range rand.New(rand.NewSource(tr.cfg.seed)).Perm(len(cells)) {
		c := cells[ci]
		err := runCell(tr.replay, c, tr.nextOp())
		tr.t.op(err)
		if err != nil {
			return err
		}
		if len(tr.redo) < sc.overheadOps {
			tr.redo = append(tr.redo, func(rec *recorder) error { return runCell(rec, c, 0) })
		}
	}
	return nil
}

// warmReplay: the daemon's CSV load and three cache fills, then the
// first scale.tracedOps requests of the open-loop sequence, each served
// from its cached entry.
func (tr *tracedRun) warmReplay(ctx context.Context) error {
	sc := tr.cfg.scale
	op := tr.nextOp()
	root := tr.replay.begin("op.setup", -1, op)
	tab, err := tr.readTable(tr.replay, root, op, compasTable(sc.compasRows, tr.cfg.seed))
	if err != nil {
		tr.replay.end(root)
		return err
	}
	tr.table = tab
	cache := map[string]*entry{}
	for _, st := range statNames {
		if cache[st], err = tr.build(tr.replay, root, op, tab, shape{Stat: st}); err != nil {
			tr.replay.end(root)
			return err
		}
	}
	tr.replay.end(root)
	for _, sh := range warmSequence(tr.cfg.seed, sc.tracedOps) {
		e := cache[sh.Stat]
		serve := func(rec *recorder, op int) error {
			root := rec.begin("op.explore", -1, op)
			defer rec.end(root)
			return tr.explore(ctx, rec, root, op, e, core.Hierarchical, sh, true)
		}
		err := serve(tr.replay, tr.nextOp())
		tr.t.op(err)
		if err != nil {
			return err
		}
		if len(tr.redo) < sc.overheadOps {
			tr.redo = append(tr.redo, func(rec *recorder) error { return serve(rec, 0) })
		}
	}
	return nil
}

// coldReplay: the CSV load, then the first scale.tracedOps requests of
// the closed-loop senders' interleaved streams, through a 32-entry
// universe cache like the daemon's default.
func (tr *tracedRun) coldReplay(ctx context.Context) error {
	sc := tr.cfg.scale
	op := tr.nextOp()
	root := tr.replay.begin("op.setup", -1, op)
	tab, err := tr.readTable(tr.replay, root, op, compasTable(sc.compasRows, tr.cfg.seed))
	tr.replay.end(root)
	if err != nil {
		return err
	}
	tr.table = tab
	type key struct {
		stat, crit string
		st         float64
	}
	cache := map[key]*entry{}
	var order []key
	for _, sh := range coldSequence(tr.cfg.seed, conns, sc.tracedOps) {
		serve := func(rec *recorder, op int, useCache bool) error {
			root := rec.begin("op.explore", -1, op)
			defer rec.end(root)
			k := key{sh.Stat, sh.Criterion, sh.ST}
			e := cache[k]
			if e == nil || !useCache {
				var err error
				if e, err = tr.build(rec, root, op, tab, sh); err != nil {
					return err
				}
				if useCache {
					cache[k] = e
					if order = append(order, k); len(order) > 32 {
						delete(cache, order[0])
						order = order[1:]
					}
				}
			}
			return tr.explore(ctx, rec, root, op, e, core.Hierarchical, sh, true)
		}
		err := serve(tr.replay, tr.nextOp(), true)
		tr.t.op(err)
		if err != nil {
			return err
		}
		if len(tr.redo) < sc.overheadOps {
			tr.redo = append(tr.redo, func(rec *recorder) error { return serve(rec, 0, false) })
		}
	}
	return nil
}

// liveState is the in-process mirror of one live dataset: the versioned
// table, its write-ahead log and the watched shape's entry per epoch.
type liveState struct {
	v       *dataset.Versioned
	log     *wal.Log
	entries map[uint64]*entry
	last    uint64 // newest epoch with an entry
}

func (tr *tracedRun) openLive(rec *recorder, parent, op int, tab *dataset.Table, dir string) (*liveState, error) {
	log, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	ls := &liveState{v: dataset.NewVersioned(tab), log: log, entries: map[uint64]*entry{}}
	snap, epoch := ls.v.Snapshot()
	e, err := tr.build(rec, parent, op, snap, watchedShape)
	if err != nil {
		log.Close()
		return nil, err
	}
	ls.entries[epoch], ls.last = e, epoch
	return ls, nil
}

// tick is one live-append interval: an append (parse, epoch bump with
// the WAL record buffered inside it, group-commit fsync), an exploration
// of the watched shape (a cache miss on the new epoch, grown
// incrementally when the KS gate allows, re-discretized otherwise) and
// the drift monitor's re-mine of the same shape.
func (tr *tracedRun) tick(ctx context.Context, rec *recorder, ls *liveState, body []byte) error {
	op := tr.nextOp()
	root := rec.begin("op.append", -1, op)
	id := rec.begin("dataset.parse_batch", root, op)
	batch, err := dataset.ParseBatch(body, ls.v.Fields())
	rec.end(id)
	if err != nil {
		rec.end(root)
		return err
	}
	var res wal.AppendResult
	id = rec.begin("dataset.append", root, op)
	_, _, err = ls.v.AppendWith(batch, func(epoch uint64) error {
		w := rec.begin("wal.append", id, op)
		var werr error
		res, werr = ls.log.Append(epoch, body)
		rec.end(w)
		return werr
	})
	rec.end(id)
	if err == nil {
		id = rec.begin("wal.commit", root, op)
		err = ls.log.Commit(res.Off)
		rec.end(id)
	}
	rec.end(root)
	if err != nil {
		return err
	}

	op = tr.nextOp()
	root = rec.begin("op.explore", -1, op)
	tab, epoch := ls.v.Snapshot()
	prior := ls.entries[ls.last]
	var e *entry
	if canGrow(rec, root, op, prior.tab, tab) {
		e, err = tr.grow(rec, root, op, tab, prior, watchedShape)
	}
	if e == nil {
		e, err = tr.build(rec, root, op, tab, watchedShape)
	}
	if err != nil {
		rec.end(root)
		return err
	}
	ls.entries[epoch], ls.last = e, epoch
	delete(ls.entries, epoch-8) // the daemon's default -epoch-retain
	err = tr.explore(ctx, rec, root, op, e, core.Hierarchical, watchedShape, true)
	rec.end(root)
	if err != nil {
		return err
	}
	if rec == tr.replay && len(tr.redo) < tr.cfg.scale.overheadOps {
		tr.redo = append(tr.redo, func(rec *recorder) error {
			root := rec.begin("op.explore", -1, 0)
			defer rec.end(root)
			return tr.explore(ctx, rec, root, 0, e, core.Hierarchical, watchedShape, true)
		})
	}

	op = tr.nextOp()
	root = rec.begin("op.remine", -1, op)
	err = tr.explore(ctx, rec, root, op, e, core.Hierarchical, watchedShape, false)
	rec.end(root)
	return err
}

// liveReplay: the CSV load and the watched shape's first build, then
// every append interval of the untraced run, applied in order.
func (tr *tracedRun) liveReplay(ctx context.Context) error {
	sc := tr.cfg.scale
	op := tr.nextOp()
	root := tr.replay.begin("op.setup", -1, op)
	base := compasTable(sc.compasRows, tr.cfg.seed)
	tab, err := tr.readTable(tr.replay, root, op, base)
	if err != nil {
		tr.replay.end(root)
		return err
	}
	tr.table = tab
	tr.walDir = filepath.Join(tr.cfg.work, "traced-wal")
	ls, err := tr.openLive(tr.replay, root, op, tab, tr.walDir)
	tr.replay.end(root)
	if err != nil {
		return err
	}
	gen := &batchGen{tab: base, r: rand.New(rand.NewSource(tr.cfg.seed))}
	n := int(tr.cfg.seconds.Seconds() * sc.liveRate)
	for i := 0; i < n; i++ {
		body, _ := gen.next()
		err := tr.tick(ctx, tr.replay, ls, body)
		tr.t.op(err)
		if err != nil {
			ls.log.Close()
			return err
		}
	}
	return ls.log.Close()
}

// probes exercises, on the workload's probe table, every layer the
// replay did not reach, then the layers only probes measure: WAL replay,
// the server's own overhead on explores and appends, the bitvec kernels
// and two-worker mining.
func (tr *tracedRun) probes(ctx context.Context, m measured) error {
	sc := tr.cfg.scale
	reached := map[string]bool{}
	for _, s := range tr.replay.spans {
		reached[s.Name] = true
	}
	if !reached["dataset.read_csv"] {
		for i := 0; i < 3; i++ {
			if _, err := tr.readTable(tr.probe, -1, tr.nextOp(), tr.table); err != nil {
				return err
			}
		}
	}
	if !reached["core.build_statistic"] {
		for _, st := range statNames {
			id := tr.probe.begin("core.build_statistic", -1, tr.nextOp())
			_, _, err := core.BuildStatistic(tr.table, st, actualCol, predCol, "")
			tr.probe.end(id)
			if err != nil {
				return err
			}
		}
	}
	if tr.walDir == "" {
		// The append path: parse, epoch bump, WAL, KS gate, incremental
		// universes, on batches drawn the way live-append draws them.
		tr.walDir = filepath.Join(tr.cfg.work, "probe-wal")
		ls, err := tr.openLive(tr.probe, -1, tr.nextOp(), tr.table, tr.walDir)
		if err != nil {
			return err
		}
		gen := &batchGen{tab: tr.table, r: rand.New(rand.NewSource(tr.cfg.seed))}
		for i := 0; i < sc.probeBatches; i++ {
			body, _ := gen.next()
			if err := tr.tick(ctx, tr.probe, ls, body); err != nil {
				ls.log.Close()
				return err
			}
		}
		if err := ls.log.Close(); err != nil {
			return err
		}
	}
	if err := tr.walReplayProbe(); err != nil {
		return err
	}
	if err := tr.serveProbes(m); err != nil {
		return err
	}
	if err := tr.bitvecProbe(m); err != nil {
		return err
	}
	if err := tr.workersProbe(ctx, m); err != nil {
		return err
	}
	return tr.overheadProbe(m)
}

// walReplayProbe opens a copy of the log the append path wrote and
// replays every record, three times.
func (tr *tracedRun) walReplayProbe() error {
	for i := 0; i < 3; i++ {
		dir := filepath.Join(tr.cfg.work, fmt.Sprintf("wal-copy-%d", i))
		if err := copyDir(dir, tr.walDir); err != nil {
			return err
		}
		id := tr.probe.begin("wal.replay", -1, tr.nextOp())
		log, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways})
		if err != nil {
			tr.probe.end(id)
			return err
		}
		n := 0
		err = log.Replay(func(wal.Record) error { n++; return nil })
		tr.probe.end(id)
		cerr := log.Close()
		if err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
		tr.t.check(n > 0, "wal replay probe found no records")
	}
	return nil
}

// serveProbes measures the server's own cost in process through
// Server.ServeHTTP: for warm explores, the handler's time minus the
// library's "explore" span (mining and ranking) of the same request, read
// back from GET /v1/trace/{id}; for appends, the whole handler on a
// durable dataset.
func (tr *tracedRun) serveProbes(m measured) error {
	sc := tr.cfg.scale
	srv, err := server.New(server.Config{
		Datasets: []server.DatasetConfig{{Name: datasetName, Table: tr.table}},
		DriftT:   -1,
	})
	if err != nil {
		return err
	}
	for _, st := range statNames {
		sh := shape{Stat: st, S: 0.1, Top: 10}
		if rec := serve(srv, http.MethodPost, "/v1/explore", sh.request("", 0)); rec.Code != http.StatusOK {
			return fmt.Errorf("in-process fill %s: status %d", st, rec.Code)
		}
	}
	shapes := newWarmStream(rand.New(rand.NewSource(tr.cfg.seed)))
	var overhead []float64
	for i := 0; i < sc.serveProbes; i++ {
		sh := shapes.next()
		id := tr.probe.begin("server.serve_http", -1, tr.nextOp())
		start := time.Now()
		rec := serve(srv, http.MethodPost, "/v1/explore", sh.request("", 0))
		handler := time.Since(start)
		tr.probe.end(id)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process explore %+v: status %d", sh, rec.Code)
		}
		library, err := exploreSpan(srv, rec.Header().Get("X-Request-ID"))
		if err != nil {
			return err
		}
		overhead = append(overhead, ms(handler-library))
	}
	m["server.serve_overhead_ms"] = median(overhead)

	durable, err := server.New(server.Config{
		Datasets: []server.DatasetConfig{{Name: datasetName, Table: tr.table}},
		DriftT:   -1,
		WALDir:   filepath.Join(tr.cfg.work, "serve-wal"),
	})
	if err != nil {
		return err
	}
	gen := &batchGen{tab: tr.table, r: rand.New(rand.NewSource(tr.cfg.seed))}
	var appends []float64
	for i := 0; i < sc.probeBatches; i++ {
		body, _ := gen.next()
		id := tr.probe.begin("server.append_serve", -1, tr.nextOp())
		start := time.Now()
		rec := serve(durable, http.MethodPost, "/v1/datasets/"+datasetName+"/rows", body)
		appends = append(appends, ms(time.Since(start)))
		tr.probe.end(id)
		tr.t.check(rec.Code == http.StatusOK, "in-process append: status %d", rec.Code)
	}
	m["server.append_serve_ms"] = median(appends)
	return durable.Close()
}

func serve(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// exploreSpan returns the duration of the library's exploration span in
// the trace the server kept for request id.
func exploreSpan(srv http.Handler, id string) (time.Duration, error) {
	rec := serve(srv, http.MethodGet, "/v1/trace/"+id+"?format=json", nil)
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("trace of request %q: status %d", id, rec.Code)
	}
	var trace obs.Trace
	if err := json.Unmarshal(rec.Body.Bytes(), &trace); err != nil {
		return 0, fmt.Errorf("trace of request %q: %w", id, err)
	}
	for _, s := range trace.Spans {
		if s.Name == obs.SpanExplore && s.Parent < 0 {
			return time.Duration(s.DurNS), nil
		}
	}
	return 0, fmt.Errorf("trace of request %q has no %q span", id, obs.SpanExplore)
}

// bitvecSink keeps the kernels' results observable so no call is
// optimized away.
var bitvecSink int

// bitvecProbe times Set.AndCountRange and Set.AndMomentsRange over
// seeded item pairs of the replay's hierarchical universes: the left
// operand once as a dense vector and once compressed, the right one a
// dense item as the miners use it. Reported per 1000 words of range.
func (tr *tracedRun) bitvecProbe(m measured) error {
	sc := tr.cfg.scale
	unis := tr.universes
	if len(unis) == 0 {
		return fmt.Errorf("bitvec probe: the replay built no hierarchical universe")
	}
	r := rand.New(rand.NewSource(tr.cfg.seed))
	type pair struct {
		dense      *bitvec.Vector
		compressed *bitvec.Compressed
		right      *bitvec.Vector
		vals       []float64
	}
	vals := map[*fpm.Universe][]float64{}
	var pairs []pair
	words := 0
	for len(pairs) < sc.bitvecPairs {
		u := unis[r.Intn(len(unis))]
		right, ok := u.Rows[r.Intn(len(u.Rows))].(*bitvec.Vector)
		if !ok {
			continue
		}
		left := u.Rows[r.Intn(len(u.Rows))].Dense()
		if vals[u] == nil {
			v := make([]float64, u.NumRows)
			for i := range v {
				v[i] = r.Float64()
			}
			vals[u] = v
		}
		pairs = append(pairs, pair{dense: left, compressed: bitvec.Compress(left), right: right, vals: vals[u]})
		words += left.NumWords()
	}
	kwords := float64(words) / 1000
	timeKernel := func(name string, kernel func(p pair) int) {
		var runs []float64
		for rep := 0; rep < 5; rep++ {
			id := tr.probe.begin(name, -1, tr.nextOp())
			start := time.Now()
			for _, p := range pairs {
				bitvecSink += kernel(p)
			}
			runs = append(runs, float64(time.Since(start).Nanoseconds())/kwords)
			tr.probe.end(id)
		}
		m[name] = median(runs)
	}
	timeKernel("bitvec.and_count_ns_per_kword.dense", func(p pair) int {
		return p.dense.AndCountRange(p.right, 0, p.dense.NumWords())
	})
	timeKernel("bitvec.and_count_ns_per_kword.compressed", func(p pair) int {
		return p.compressed.AndCountRange(p.right, 0, p.compressed.NumWords())
	})
	timeKernel("bitvec.and_moments_ns_per_kword.dense", func(p pair) int {
		n, _, _ := p.dense.AndMomentsRange(p.right, p.vals, 0, p.dense.NumWords())
		return n
	})
	timeKernel("bitvec.and_moments_ns_per_kword.compressed", func(p pair) int {
		n, _, _ := p.compressed.AndMomentsRange(p.right, p.vals, 0, p.compressed.NumWords())
		return n
	})
	return nil
}

// workersProbe times the warm workload's heaviest shape (fpr, s 0.01,
// hierarchical) on the probe table with one and with two mining workers,
// alternating; the speedup is the ratio of the medians.
func (tr *tracedRun) workersProbe(ctx context.Context, m measured) error {
	e, err := tr.build(tr.probe, -1, tr.nextOp(), tr.table, shape{Stat: "fpr"})
	if err != nil {
		return err
	}
	bundle, err := outcome.NewBundle(e.out)
	if err != nil {
		return err
	}
	times := map[int][]float64{}
	for rep := 0; rep < 5; rep++ {
		for _, workers := range []int{1, 2} {
			id := tr.probe.begin(fmt.Sprintf("engine.explore_w%d", workers), -1, tr.nextOp())
			start := time.Now()
			_, err := core.ExploreUniverseMultiContext(ctx, e.uni[core.Hierarchical], core.Config{
				Hierarchies: e.hs, MinSupport: 0.01, Mode: core.Hierarchical, Workers: workers,
			}, bundle)
			times[workers] = append(times[workers], ms(time.Since(start)))
			tr.probe.end(id)
			if err != nil {
				return err
			}
		}
	}
	m["engine.speedup_w2"] = median(times[1]) / median(times[2])
	return nil
}

// overheadProbe re-runs each of the first replayed explorations in
// back-to-back pairs, once without and once with span recording, in
// alternating order, scale.overheadRounds times. trace.overhead_pct is
// the median of the pairs' relative differences: pairing keeps the
// machine's drift between runs out of a difference of a few spans.
func (tr *tracedRun) overheadProbe(m measured) error {
	timed := func(f func(*recorder) error, rec *recorder) (time.Duration, error) {
		start := time.Now()
		err := f(rec)
		return time.Since(start), err
	}
	var diffs []float64
	for round := 0; round < tr.cfg.scale.overheadRounds; round++ {
		for i, f := range tr.redo {
			var plain, traced time.Duration
			var err, err2 error
			if (round+i)%2 == 0 {
				plain, err = timed(f, nil)
				traced, err2 = timed(f, newRecorder(time.Now()))
			} else {
				traced, err = timed(f, newRecorder(time.Now()))
				plain, err2 = timed(f, nil)
			}
			if err != nil {
				return err
			}
			if err2 != nil {
				return err2
			}
			diffs = append(diffs, 100*(traced.Seconds()-plain.Seconds())/plain.Seconds())
		}
	}
	if len(diffs) == 0 {
		return fmt.Errorf("trace overhead probe ran nothing")
	}
	m["trace.overhead_pct"] = median(diffs)
	return nil
}

// spanMetrics maps per-layer metrics to the span whose median self time
// they report, and the factor from milliseconds to their unit.
var spanMetrics = []struct {
	metric, span string
	scale        float64
}{
	{"dataset.read_csv_ms", "dataset.read_csv", 1},
	{"dataset.parse_batch_us", "dataset.parse_batch", 1000},
	{"dataset.append_us", "dataset.append", 1000},
	{"core.build_statistic_ms", "core.build_statistic", 1},
	{"discretize.tree_set_ms", "discretize.tree_set", 1},
	{"discretize.ks_drift_us", "discretize.ks_drift", 1000},
	{"fpm.universe_ms", "fpm.universe", 1},
	{"fpm.append_universe_ms", "fpm.append_universe", 1},
	{"fpm.mine_ms", "fpm.mine", 1},
	{"core.rank_ms", "core.rank", 1},
	{"core.encode_ms", "core.encode", 1},
	{"wal.append_us", "wal.append", 1000},
	{"wal.commit_ms", "wal.commit", 1},
	{"wal.replay_ms", "wal.replay", 1},
}

// layerMetrics derives the span-based per-layer metrics, preferring the
// replay's spans and falling back to the probes', plus the mining
// counters of the replayed explorations.
func (tr *tracedRun) layerMetrics(m measured) {
	replay, probe := tr.replay.selfMS(), tr.probe.selfMS()
	for _, sm := range spanMetrics {
		xs := replay[sm.span]
		if len(xs) == 0 {
			xs = probe[sm.span]
		}
		if len(xs) > 0 {
			m[sm.metric] = median(xs) * sm.scale
		}
	}
	var cands, freq []float64
	for _, st := range tr.mining {
		cands = append(cands, float64(st.Candidates))
		freq = append(freq, float64(st.Frequent))
	}
	m["fpm.candidates"] = median(cands)
	if c := sum(cands); c > 0 {
		m["fpm.frequent_ratio"] = sum(freq) / c
		if mine := sum(replay["fpm.mine"]); mine > 0 {
			m["fpm.candidates_per_ms"] = c / mine
		}
	}
	m["fpm.universe_mb"] = median(tr.uniBytes)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(dst, src string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copying %s: %s is not a regular file", src, e.Name())
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}
