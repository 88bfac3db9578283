package obs

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
)

// allocMetrics are the two runtime/metrics samples behind AllocSample.
// Unlike runtime.ReadMemStats they are read without a stop-the-world,
// which is what makes per-span and per-worker allocation deltas cheap
// enough to leave on in production.
var allocMetricNames = [2]string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"}

// allocSampleSupported is probed once at init: both samples must resolve
// to KindUint64 on this runtime, otherwise AllocSample falls back to
// runtime.ReadMemStats.
var allocSampleSupported = func() bool {
	s := make([]rtmetrics.Sample, len(allocMetricNames))
	for i, n := range allocMetricNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	for i := range s {
		if s[i].Value.Kind() != rtmetrics.KindUint64 {
			return false
		}
	}
	return true
}()

// AllocSample returns the process-lifetime heap allocation totals —
// cumulative bytes and object count — from runtime/metrics. Two samples
// subtracted give the allocation delta over a region; deltas are
// process-global, so concurrent regions attribute each other's
// allocations. Falls back to runtime.ReadMemStats (TotalAlloc, Mallocs)
// on runtimes without the /gc/heap/allocs metrics.
func AllocSample() (bytes, objects uint64) {
	if allocSampleSupported {
		var s [2]rtmetrics.Sample
		s[0].Name = allocMetricNames[0]
		s[1].Name = allocMetricNames[1]
		rtmetrics.Read(s[:])
		return s[0].Value.Uint64(), s[1].Value.Uint64()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// runtimeMetric describes one curated runtime/metrics export: the
// Prometheus family name, its HELP text, the metric type, and the
// runtime/metrics names to try in order (later entries are fallbacks for
// older runtimes). Only families whose metric exists with the expected
// kind are emitted, so the allowlist degrades gracefully across Go
// versions.
type runtimeMetric struct {
	name       string
	help       string
	typ        string // "gauge", "counter" or "histogram"
	candidates []string
}

// runtimeAllowlist is the curated allowlist exported on /metrics; DESIGN
// §10 documents the selection. Deliberately small: heap size, allocation
// throughput, GC activity and scheduler health — the dimensions the
// Figure2 memory work needs — not the full runtime/metrics catalogue.
var runtimeAllowlist = []runtimeMetric{
	{"go_mem_heap_objects_bytes", "Bytes of live heap memory occupied by objects.", "gauge",
		[]string{"/memory/classes/heap/objects:bytes"}},
	{"go_mem_total_bytes", "Total memory mapped by the Go runtime.", "gauge",
		[]string{"/memory/classes/total:bytes"}},
	{"go_gc_heap_allocs_bytes", "Cumulative bytes allocated on the heap.", "counter",
		[]string{"/gc/heap/allocs:bytes"}},
	{"go_gc_heap_allocs_objects", "Cumulative heap objects allocated.", "counter",
		[]string{"/gc/heap/allocs:objects"}},
	{"go_gc_cycles", "Completed GC cycles.", "counter",
		[]string{"/gc/cycles/total:gc-cycles"}},
	{"go_goroutines", "Live goroutines.", "gauge",
		[]string{"/sched/goroutines:goroutines"}},
	{"go_gomaxprocs", "GOMAXPROCS at sample time.", "gauge",
		[]string{"/sched/gomaxprocs:threads"}},
	{"go_gc_pauses_seconds", "Distribution of stop-the-world GC pause latencies.", "histogram",
		[]string{"/sched/pauses/total/gc:seconds", "/gc/pauses:seconds"}},
	{"go_sched_latencies_seconds", "Distribution of goroutine scheduling latencies.", "histogram",
		[]string{"/sched/latencies:seconds"}},
}

// maxRuntimeBuckets caps the bucket count of exported runtime histograms;
// runtime/metrics latency histograms have hundreds of fine-grained
// buckets, which would bloat every scrape. Adjacent buckets are merged
// (counts summed, upper bound kept) down to at most this many.
const maxRuntimeBuckets = 32

// RuntimeFamilies reads the curated runtime/metrics allowlist into
// exposition families, the runtime part of the server's GET /metrics.
// Families whose runtime metric is missing or has an unexpected kind are
// skipped silently, so the output is stable within one Go version but
// tolerant across them.
func RuntimeFamilies() []Family {
	// One Read call for every candidate name keeps the samples mutually
	// consistent enough for a scrape.
	var names []string
	for _, m := range runtimeAllowlist {
		names = append(names, m.candidates...)
	}
	samples := make([]rtmetrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	rtmetrics.Read(samples)
	byName := make(map[string]*rtmetrics.Sample, len(samples))
	for i := range samples {
		byName[samples[i].Name] = &samples[i]
	}

	var fams []Family
	for _, m := range runtimeAllowlist {
		var s *rtmetrics.Sample
		for _, cand := range m.candidates {
			if c := byName[cand]; c != nil && c.Value.Kind() != rtmetrics.KindBad {
				s = c
				break
			}
		}
		if s == nil {
			continue
		}
		var sample Sample
		switch kind := s.Value.Kind(); {
		case m.typ == "histogram":
			if kind != rtmetrics.KindFloat64Histogram {
				continue
			}
			if sample.Hist = runtimeHistogram(s.Value.Float64Histogram()); sample.Hist == nil {
				continue
			}
		case kind == rtmetrics.KindUint64:
			sample.Value = float64(s.Value.Uint64())
		case kind == rtmetrics.KindFloat64:
			sample.Value = s.Value.Float64()
		default:
			continue
		}
		fams = append(fams, Family{Name: m.name, Type: m.typ, Help: m.help, Samples: []Sample{sample}})
	}
	return fams
}

// runtimeHistogram converts a runtime/metrics Float64Histogram —
// per-interval counts between len(Counts)+1 boundaries, possibly
// including ±Inf — into a HistogramRecord, merging adjacent buckets
// (counts summed, upper bound kept) down to maxRuntimeBuckets. The Sum
// is approximated from bucket midpoints (runtime histograms carry no
// exact sum). Returns nil for an empty or malformed histogram.
func runtimeHistogram(h *rtmetrics.Float64Histogram) *HistogramRecord {
	if h == nil || len(h.Counts) == 0 || len(h.Buckets) != len(h.Counts)+1 {
		return nil
	}
	rec := &HistogramRecord{}
	stride := (len(h.Counts) + maxRuntimeBuckets - 1) / maxRuntimeBuckets
	for i := 0; i < len(h.Counts); i += stride {
		end := min(i+stride, len(h.Counts))
		var n uint64
		var sum float64 // midpoint-approximated mass
		for j := i; j < end; j++ {
			c := h.Counts[j]
			n += c
			if c == 0 {
				continue
			}
			lo, hi := h.Buckets[j], h.Buckets[j+1]
			mid := (lo + hi) / 2
			if math.IsInf(lo, -1) {
				mid = hi
			}
			if math.IsInf(hi, +1) {
				mid = lo
			}
			if math.IsInf(mid, 0) || math.IsNaN(mid) {
				mid = 0
			}
			sum += mid * float64(c)
		}
		rec.Bounds = append(rec.Bounds, h.Buckets[end])
		rec.Counts = append(rec.Counts, int64(n))
		rec.Count += int64(n)
		rec.Sum += sum
	}
	// Bounds exclude +Inf: a merged bucket ending at +Inf is the record's
	// overflow bucket, otherwise the overflow bucket is empty.
	if last := len(rec.Bounds) - 1; math.IsInf(rec.Bounds[last], +1) {
		rec.Bounds = rec.Bounds[:last]
	} else {
		rec.Counts = append(rec.Counts, 0)
	}
	return rec
}
