package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dataset"
)

// served is one daemon workload's deployment: the generated CSV the
// daemon loads and the flags it runs with.
type served struct {
	cfg   config
	name  string // workload name, for log file names
	csv   string
	flags []string
	// warm runs after /readyz turns 200 and counts toward set-up: the
	// cache fills a workload assumes before its first measured request.
	warm    func(ctx context.Context, d *daemon) error
	started int
}

func newServed(cfg config, name string, flags ...string) (*served, error) {
	csv := filepath.Join(cfg.work, datasetName+".csv")
	if err := compasTable(cfg.scale.compasRows, cfg.seed).WriteCSVFile(csv); err != nil {
		return nil, err
	}
	return &served{cfg: cfg, name: name, csv: csv,
		flags: append([]string{"-dataset", datasetName + "=" + csv}, flags...)}, nil
}

// launch starts one daemon and waits until /readyz answers 200.
func (s *served) launch(ctx context.Context) (*daemon, error) {
	s.started++
	logPath := filepath.Join(s.cfg.out, fmt.Sprintf("%s-daemon-%d.log", s.name, s.started))
	d, err := startDaemon(ctx, s.cfg.bin, logPath, s.flags...)
	if err != nil {
		return nil, err
	}
	if err := d.waitReady(ctx, time.Minute); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// start launches one daemon and waits until it is ready and warm.
func (s *served) start(ctx context.Context) (*daemon, error) {
	d, err := s.launch(ctx)
	if err != nil {
		return nil, err
	}
	if s.warm != nil {
		if err := s.warm(ctx, d); err != nil {
			d.kill()
			return nil, fmt.Errorf("warming the daemon: %w", err)
		}
	}
	return d, nil
}

// setUp starts the daemon scale.setups times, from process start to ready
// and warm, and keeps the last one running for the measurement. setup_s
// is the median.
func (s *served) setUp(ctx context.Context, fresh func() error) (*daemon, float64, error) {
	var times []float64
	var d *daemon
	for i := 0; i < s.cfg.scale.setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, 0, err
			}
		}
		if fresh != nil {
			if err := fresh(); err != nil {
				return nil, 0, err
			}
		}
		start := time.Now()
		var err error
		if d, err = s.start(ctx); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return d, median(times), nil
}

// rounds spreads a measurement over scale.rounds daemon processes: *d,
// which setUp left running, then a freshly started, ready and warm one
// for each further round. The same request mix ran up to 20% faster or
// slower in one daemon process than in the next on the reference machine,
// so a run measured in a single process inherits that process's luck.
// body measures round r on its daemon; *d is the running daemon whenever
// rounds returns.
func (s *served) rounds(ctx context.Context, d **daemon, body func(r int, d *daemon) error) error {
	for r := 0; r < s.cfg.scale.rounds; r++ {
		if r > 0 {
			if err := (*d).stop(); err != nil {
				return err
			}
			var err error
			if *d, err = s.start(ctx); err != nil {
				return err
			}
		}
		if err := body(r, *d); err != nil {
			return err
		}
	}
	return nil
}

func exploreURL(d *daemon) string { return d.base + "/v1/explore" }

// exploreOp posts one exploration and checks that the reply is JSON.
func exploreOp(d *daemon, sh shape) op {
	body := sh.request("", 0)
	return func(ctx context.Context, c *http.Client) error {
		reply, err := post(ctx, c, exploreURL(d), body)
		if err == nil && !json.Valid(reply) {
			err = fmt.Errorf("explore %+v: reply is not JSON", sh)
		}
		return err
	}
}

// checkAgainstCLI asks the daemon for each shape's ranked CSV and compares
// it byte for byte with the CLI's CSV for the same flags, cut to the
// shape's top k (the CLI writes every subgroup). Two CLI processes run at
// a time.
func checkAgainstCLI(ctx context.Context, cfg config, d *daemon, csv string, shapes []shape, t *tally) {
	c := newClient()
	defer c.CloseIdleConnections()
	errs := make([]error, len(shapes))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i, sh := range shapes {
		got, err := post(ctx, c, exploreURL(d), sh.request("csv", 0))
		if err != nil {
			errs[i] = err
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, sh shape, got []byte) {
			defer wg.Done()
			defer func() { <-sem }()
			want, err := exec.CommandContext(ctx, filepath.Join(cfg.bin, "hdivexplorer"), sh.cliArgs(csv)...).Output()
			if err != nil {
				errs[i] = fmt.Errorf("hdivexplorer %+v: %w", sh, err)
				return
			}
			if want = firstLines(want, 1+sh.Top); !bytes.Equal(got, want) {
				errs[i] = fmt.Errorf("shape %+v: daemon CSV (%d bytes) differs from CLI CSV (%d bytes)", sh, len(got), len(want))
			}
		}(i, sh, got)
	}
	wg.Wait()
	for i, err := range errs {
		t.check(err == nil, "CLI equivalence %+v: %v", shapes[i], err)
	}
}

// firstLines returns b up to and including its n-th newline.
func firstLines(b []byte, n int) []byte {
	for i, c := range b {
		if c == '\n' {
			if n--; n == 0 {
				return b[:i+1]
			}
		}
	}
	return b
}

// daemonMetrics records what every daemon workload reports at the end of
// its measurement: the peak RSS and, as informational extras, the
// counters of the final /metrics scrape.
func daemonMetrics(ctx context.Context, d *daemon, m measured) error {
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	m["peak_rss_mb"] = rss
	c, err := d.scrape(ctx)
	if err != nil {
		return err
	}
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	per := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["engine.pool_hit_ratio"] = ratio(c["engine_pool_hits"], c["engine_pool_misses"])
	m["server.cache_hit_ratio"] = ratio(c["server_universe_cache_hits"], c["server_universe_cache_misses"])
	m["server.incremental_ratio"] = ratio(c["server_universe_builds_incremental"], c["server_universe_builds_rediscretized"])
	m["server.drift_remines_per_append"] = per(c["server_drift_remines"], c["server_appends"])
	m["server.rejected"] = c["server_rejected_saturated"]
	m["wal.fsyncs_per_record"] = per(c["wal_fsync_seconds_count"], c["wal_records_appended"])
	m["daemon.gomaxprocs"] = c["go_gomaxprocs"]
	return nil
}

// loadgenMetrics records how late the open-loop scheduler released
// requests (p90: a run has too few requests for a supported p99) and how
// long they then waited for a free connection. A run whose scheduler was
// late by more than 5 ms measured its own timer, not the daemon; the
// extra lets a reader discard it.
func loadgenMetrics(m measured, ss []sample) {
	var late, wait []float64
	for _, s := range ss {
		late = append(late, ms(s.late()))
		wait = append(wait, ms(s.queueWait()))
	}
	if v, err := percentile(late, 0.9); err == nil {
		m["loadgen.late_p90_ms"] = v
	}
	if len(wait) > 0 {
		m["loadgen.queue_wait_p50_ms"] = median(wait)
	}
}

// tallyOps counts every sample as an operation, failed when its request
// failed.
func tallyOps(t *tally, ss []sample) {
	for _, s := range ss {
		t.op(s.err)
	}
}

// rate is successful operations per second: over the span of each group
// of samples (one group per round), summed.
func rate(groups ...[]sample) float64 {
	ok, span := 0, 0.0
	for _, ss := range groups {
		if len(ss) == 0 {
			continue
		}
		first, last := ss[0].start, ss[0].end
		for _, s := range ss {
			if s.start.Before(first) {
				first = s.start
			}
			if s.end.After(last) {
				last = s.end
			}
			if s.err == nil {
				ok++
			}
		}
		span += last.Sub(first).Seconds()
	}
	if span == 0 {
		return 0
	}
	return float64(ok) / span
}

// medians folds the rounds' metrics into one set: each metric's median
// over the rounds that reported it.
func medians(per []measured) measured {
	vals := map[string][]float64{}
	for _, m := range per {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := measured{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// conns is the number of connections a daemon workload opens: the
// reference machine's core count, so the load never needs more threads
// than the machine has.
const conns = 2

func clients(n int) []*http.Client {
	cs := make([]*http.Client, n)
	for i := range cs {
		cs[i] = newClient()
	}
	return cs
}

// warmUp runs a closed loop of the workload's requests for
// scale.warmup before anything is timed, so each round's measurement
// starts from a daemon whose heap has grown to its working size under
// this load. The replies only count as operations.
func warmUp(ctx context.Context, cfg config, cs []*http.Client, t *tally, next func(w, k int) op) {
	tallyOps(t, closedLoop(ctx, cs, time.Now().Add(cfg.scale.warmup), next))
}

// warmExplore: the three universe-cache keys are filled during set-up. In
// each round a warm-up runs, then Phase A, a closed loop on two
// connections (capacity), then Phase B, an open loop at scale.warmRPS
// (latency); over the rounds Phase A takes a third of the measured time
// and Phase B the rest. Every warm shape's CSV is checked against the CLI.
func warmExplore(ctx context.Context, cfg config, t *tally) (measured, error) {
	s, err := newServed(cfg, "warm-explore")
	if err != nil {
		return nil, err
	}
	s.warm = func(ctx context.Context, d *daemon) error {
		c := newClient()
		defer c.CloseIdleConnections()
		for _, st := range statNames {
			if _, err := post(ctx, c, exploreURL(d), shape{Stat: st, S: 0.1, Top: 10}.request("", 0)); err != nil {
				return err
			}
		}
		return nil
	}
	d, setup, err := s.setUp(ctx, nil)
	if err != nil {
		return nil, err
	}
	defer func() { d.kill() }()
	cs := clients(conns)
	defer closeClients(cs)

	rounds := cfg.scale.rounds
	phaseA := cfg.seconds / 3 / time.Duration(rounds)
	perRound := int((cfg.seconds - cfg.seconds/3).Seconds() * cfg.scale.warmRPS / float64(rounds))
	seq := warmSequence(cfg.seed, rounds*perRound)
	warmStreams := workerStreams(-cfg.seed, len(cs), newWarmStream)
	streams := workerStreams(cfg.seed, len(cs), newWarmStream)
	sa := make([][]sample, rounds)
	var sb []sample
	per := make([]measured, rounds)
	err = s.rounds(ctx, &d, func(r int, d *daemon) error {
		closeClients(cs) // the connections of the previous round's daemon
		warmUp(ctx, cfg, cs, t, func(w, k int) op { return exploreOp(d, warmStreams[w].next()) })
		sa[r] = closedLoop(ctx, cs, time.Now().Add(phaseA), func(w, k int) op {
			return exploreOp(d, streams[w].next())
		})
		ops := make([]op, perRound)
		for i, sh := range seq[r*perRound : (r+1)*perRound] {
			ops[i] = exploreOp(d, sh)
		}
		sb = append(sb, openLoop(ctx, cs, time.Now(), time.Duration(float64(time.Second)/cfg.scale.warmRPS), ops)...)
		per[r] = measured{}
		return daemonMetrics(ctx, d, per[r])
	})
	if err != nil {
		return nil, err
	}
	for _, ss := range sa {
		tallyOps(t, ss)
	}
	tallyOps(t, sb)

	m := medians(per)
	m["setup_s"] = setup
	m["explore_rate"] = rate(sa...)
	if err := latencyMetrics(m, "explore", latencies(sb), true); err != nil {
		return nil, err
	}
	loadgenMetrics(m, sb)
	checkAgainstCLI(ctx, cfg, d, s.csv, warmShapes(), t)
	m["fail_rate"] = failRate(t)
	return m, d.stop()
}

// warmSequence is warm-explore's seeded open-loop request sequence; the
// traced run replays its prefix.
func warmSequence(seed int64, n int) []shape {
	st := newWarmStream(rand.New(rand.NewSource(seed)))
	out := make([]shape, n)
	for i := range out {
		out[i] = st.next()
	}
	return out
}

// workerStreams gives each closed-loop sender its own seeded request
// stream, so a sender's sequence does not depend on how the senders
// interleave.
func workerStreams[S any](seed int64, n int, newStream func(*rand.Rand) S) []S {
	out := make([]S, n)
	for w := range out {
		out[w] = newStream(rand.New(rand.NewSource(seed*1_000_003 + int64(w) + 1)))
	}
	return out
}

// coldSequence interleaves the closed-loop senders' request streams
// round-robin: the order the traced run replays and the output checks
// draw from.
func coldSequence(seed int64, senders, n int) []shape {
	streams := workerStreams(seed, senders, newColdStream)
	out := make([]shape, n)
	for i := range out {
		out[i] = streams[i%senders].next()
	}
	return out
}

// coldExplore: a closed loop on two connections of requests that almost
// always miss the universe cache, so each pays statistic resolution,
// tree discretization and both universe builds; each round a warm-up,
// then an equal share of the measured time. The first scale.coldChecks
// shapes are checked against the CLI.
func coldExplore(ctx context.Context, cfg config, t *tally) (measured, error) {
	s, err := newServed(cfg, "cold-explore")
	if err != nil {
		return nil, err
	}
	d, setup, err := s.setUp(ctx, nil)
	if err != nil {
		return nil, err
	}
	defer func() { d.kill() }()
	cs := clients(conns)
	defer closeClients(cs)
	// The warm-up's requests come from another seed's streams, so the
	// measured requests still miss the cache.
	warmStreams := workerStreams(-cfg.seed, len(cs), newColdStream)
	streams := workerStreams(cfg.seed, len(cs), newColdStream)
	rounds := cfg.scale.rounds
	ss := make([][]sample, rounds)
	var lat []float64
	per := make([]measured, rounds)
	err = s.rounds(ctx, &d, func(r int, d *daemon) error {
		closeClients(cs) // the connections of the previous round's daemon
		warmUp(ctx, cfg, cs, t, func(w, k int) op { return exploreOp(d, warmStreams[w].next()) })
		ss[r] = closedLoop(ctx, cs, time.Now().Add(cfg.seconds/time.Duration(rounds)), func(w, k int) op {
			return exploreOp(d, streams[w].next())
		})
		tallyOps(t, ss[r])
		lat = append(lat, latencies(ss[r])...)
		per[r] = measured{}
		return daemonMetrics(ctx, d, per[r])
	})
	if err != nil {
		return nil, err
	}
	m := medians(per)
	m["setup_s"] = setup
	m["explore_rate"] = rate(ss...)
	if err := latencyMetrics(m, "explore", lat, true); err != nil {
		return nil, err
	}
	checkAgainstCLI(ctx, cfg, d, s.csv, coldSequence(cfg.seed, len(cs), cfg.scale.coldChecks), t)
	m["fail_rate"] = failRate(t)
	return m, d.stop()
}

// liveFlags run the daemon durable (sync always, the default) with a
// short drift debounce, so every append's epoch bump is followed by a
// drift re-mine within the measurement.
func liveFlags(walDir string) []string {
	return []string{"-wal-dir", walDir, "-drift-debounce", "50ms"}
}

// liveAppend: appends on one connection and explorations of the watched
// shape on the other, both open loops at scale.liveRate. Then the daemon
// is killed with SIGKILL and restarted on the same WAL scale.restarts
// times; each restart must come back at the last acknowledged epoch and
// answer the watched request pinned to it with the CLI's CSV over the
// acknowledged rows, and is compared with the pinned reply from before
// the first crash. recovery_s runs from SIGKILL to /readyz 200.
func liveAppend(ctx context.Context, cfg config, t *tally) (measured, error) {
	walDir := filepath.Join(cfg.work, "wal")
	s, err := newServed(cfg, "live-append", liveFlags(walDir)...)
	if err != nil {
		return nil, err
	}
	s.warm = func(ctx context.Context, d *daemon) error {
		c := newClient()
		defer c.CloseIdleConnections()
		_, err := post(ctx, c, exploreURL(d), watchedShape.request("", 0))
		return err
	}
	fresh := func() error { return os.RemoveAll(walDir) }
	d, setup, err := s.setUp(ctx, fresh)
	if err != nil {
		return nil, err
	}
	defer func() { d.kill() }()

	n := int(cfg.seconds.Seconds() * cfg.scale.liveRate)
	gen := &batchGen{tab: compasTable(cfg.scale.compasRows, cfg.seed), r: rand.New(rand.NewSource(cfg.seed))}
	var acked uint64 // written by the single append sender, read after it is done
	appends := make([]op, n)
	bodies := make([][]byte, n)
	for i := range appends {
		body, _ := gen.next()
		bodies[i] = body
		appends[i] = func(ctx context.Context, c *http.Client) error {
			reply, err := post(ctx, c, d.base+"/v1/datasets/"+datasetName+"/rows", body)
			if err != nil {
				return err
			}
			var r struct {
				Epoch uint64 `json:"epoch"`
			}
			if err := json.Unmarshal(reply, &r); err != nil {
				return fmt.Errorf("append reply: %w", err)
			}
			if r.Epoch > acked {
				acked = r.Epoch
			}
			return nil
		}
	}
	explores := make([]op, n)
	for i := range explores {
		explores[i] = exploreOp(d, watchedShape)
	}
	interval := time.Duration(float64(time.Second) / cfg.scale.liveRate)
	start := time.Now()
	var sa, se []sample
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := []*http.Client{newClient()}
		defer closeClients(c)
		sa = openLoop(ctx, c, start, interval, appends)
	}()
	go func() {
		defer wg.Done()
		c := []*http.Client{newClient()}
		defer closeClients(c)
		// Explorations fall due between appends, so each sees the epoch the
		// previous append produced.
		se = openLoop(ctx, c, start.Add(interval/2), interval, explores)
	}()
	wg.Wait()
	tallyOps(t, sa)
	tallyOps(t, se)

	m := measured{"setup_s": setup, "explore_rate": rate(se)}
	if err := latencyMetrics(m, "explore", latencies(se), true); err != nil {
		return nil, err
	}
	if err := latencyMetrics(m, "append", latencies(sa), false); err != nil {
		return nil, err
	}
	loadgenMetrics(m, append(append([]sample(nil), sa...), se...))

	c := newClient()
	defer c.CloseIdleConnections()
	t.check(epochOf(ctx, c, d) == acked, "live daemon epoch differs from the last acknowledged epoch %d", acked)
	if err := daemonMetrics(ctx, d, m); err != nil {
		return nil, err
	}
	preCrash, err := post(ctx, c, exploreURL(d), watchedShape.request("csv", acked))
	t.op(err)
	want, err := recoveredCSV(ctx, cfg, gen.tab, bodies, sa)
	if err != nil {
		return nil, err
	}
	var recoveries []float64
	mismatches := 0
	for i := 0; i < cfg.scale.restarts; i++ {
		begin := time.Now()
		d.kill()
		if d, err = s.launch(ctx); err != nil {
			return nil, err
		}
		recoveries = append(recoveries, time.Since(begin).Seconds())
		got := epochOf(ctx, c, d)
		t.check(got == acked, "restart %d: epoch %d, want the last acknowledged %d", i+1, got, acked)
		replay, err := post(ctx, c, exploreURL(d), watchedShape.request("csv", acked))
		t.op(err)
		t.check(err != nil || bytes.Equal(replay, want),
			"restart %d: pinned epoch %d CSV differs from the CLI on the acknowledged rows", i+1, acked)
		if err == nil && !bytes.Equal(replay, preCrash) {
			mismatches++
		}
	}
	if len(recoveries) > 0 {
		m["recovery_s"] = median(recoveries)
		m["recovery.pinned_mismatches"] = float64(mismatches)
	}
	m["fail_rate"] = failRate(t)
	return m, d.stop()
}

// recoveredCSV is the CLI's ranked CSV of the watched shape, top k, over
// the base table plus every acknowledged batch in order: what a restarted
// daemon must answer for the last acknowledged epoch. The pinned reply
// from before the crash should equal it too; where it does not (an epoch
// grown incrementally keeps older cutpoints, while recovery rebuilds it
// from scratch), the restart counts in recovery.pinned_mismatches.
func recoveredCSV(ctx context.Context, cfg config, base *dataset.Table, bodies [][]byte, acks []sample) ([]byte, error) {
	v := dataset.NewVersioned(base)
	for i, s := range acks {
		if s.err != nil {
			continue
		}
		batch, err := dataset.ParseBatch(bodies[i], v.Fields())
		if err != nil {
			return nil, err
		}
		if _, _, err := v.Append(batch); err != nil {
			return nil, err
		}
	}
	tab, _ := v.Snapshot()
	path := filepath.Join(cfg.work, "recovered.csv")
	if err := tab.WriteCSVFile(path); err != nil {
		return nil, err
	}
	out, err := exec.CommandContext(ctx, filepath.Join(cfg.bin, "hdivexplorer"), watchedShape.cliArgs(path)...).Output()
	if err != nil {
		return nil, fmt.Errorf("hdivexplorer on the recovered rows: %w", err)
	}
	return firstLines(out, 1+watchedShape.Top), nil
}

// epochOf reads the served dataset's current epoch; 0 when it cannot.
func epochOf(ctx context.Context, c *http.Client, d *daemon) uint64 {
	body, err := get(ctx, c, d.base+"/v1/datasets")
	if err != nil {
		return 0
	}
	var infos []struct {
		Name  string `json:"name"`
		Epoch uint64 `json:"epoch"`
	}
	if json.Unmarshal(body, &infos) != nil {
		return 0
	}
	for _, in := range infos {
		if in.Name == datasetName {
			return in.Epoch
		}
	}
	return 0
}
