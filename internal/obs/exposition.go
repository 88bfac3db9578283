package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Family is one metric family of the /metrics exposition: a sanitized
// name, a type ("counter", "gauge" or "histogram"), optional HELP text
// and the family's samples in output order. The tracer, the runtime
// bridge and the server's SLO engine each produce families;
// WriteExposition renders them.
type Family struct {
	Name, Type, Help string
	Samples          []Sample
}

// Sample is one series of a Family: an optional label set plus either a
// scalar Value or, in histogram families, a Hist record.
type Sample struct {
	Labels []Label
	Value  float64
	Hist   *HistogramRecord
}

// Label is one name="value" pair of a sample's label set.
type Label struct{ Name, Value string }

// WriteExposition renders families in order, in the Prometheus text
// exposition format or, when openMetrics is set, in OpenMetrics 1.0:
// counter samples then carry the `_total` suffix, histogram buckets with
// a recorded exemplar append the `# {request_id="..."} v ts` clause, and
// the body ends in `# EOF`. Each family emits its HELP line (when it has
// help text) and TYPE line before its samples, even when it has no
// samples. Histogram samples expand into cumulative `_bucket{le="..."}`
// series ending in le="+Inf", then `_sum` and `_count`.
func WriteExposition(w io.Writer, fams []Family, openMetrics bool) error {
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, promEscapeHelp(f.Help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Samples {
			if s.Hist == nil {
				name := f.Name
				if openMetrics && f.Type == "counter" {
					name += "_total"
				}
				fmt.Fprintf(bw, "%s%s %s\n", name, labelSet(s.Labels), promValue(s.Value))
				continue
			}
			rec := s.Hist
			// The +Inf cumulative bucket and _count must agree exactly, so
			// both come from the same bin total (rec.Count may lag under
			// concurrent Observe between the snapshot's bin and counter
			// reads).
			var cum int64
			for i := 0; i <= len(rec.Bounds); i++ {
				bound := "+Inf"
				if i < len(rec.Bounds) {
					bound = promFloat(rec.Bounds[i])
				}
				if i < len(rec.Counts) {
					cum += rec.Counts[i]
				}
				ex := ""
				if openMetrics && i < len(rec.Exemplars) && rec.Exemplars[i] != nil {
					e := rec.Exemplars[i]
					ex = fmt.Sprintf(" # %s %s %s", labelSet([]Label{{Name: "request_id", Value: e.Label}}),
						promFloat(e.Value), promFloat(float64(e.UnixNano)/1e9))
				}
				le := slices.Concat(s.Labels, []Label{{Name: "le", Value: bound}})
				fmt.Fprintf(bw, "%s_bucket%s %d%s\n", f.Name, labelSet(le), cum, ex)
			}
			labels := labelSet(s.Labels)
			fmt.Fprintf(bw, "%s_sum%s %s\n%s_count%s %d\n", f.Name, labels, promValue(rec.Sum), f.Name, labels, cum)
		}
	}
	if openMetrics {
		bw.WriteString("# EOF\n")
	}
	return bw.Flush()
}

// labelSet renders a sample's `{name="value",...}` clause, "" for an
// empty label set.
func labelSet(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	pairs := make([]string, len(labels))
	for i, l := range labels {
		pairs[i] = l.Name + `="` + promEscapeLabel(l.Value) + `"`
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// Families converts the trace's counters, gauges and histograms into
// exposition families — the tracer's part of the server's GET /metrics.
// Names are sanitized to [a-zA-Z0-9_:] and HELP text comes from
// MetricHelp. Counters come first, then gauges, then histograms, each
// sorted by sanitized name. When several dotted names sanitize to the
// same Prometheus name, colliding counters merge by sum (both series are
// monotonic, so the sum is too), while a gauge or histogram whose name
// is already taken is dropped (first in sorted-key order wins). Spans
// are not exported — they describe one run, not a monotonic series.
func (tr *Trace) Families() []Family {
	var fams []Family
	taken := map[string]bool{}
	add := func(name, typ string, s Sample) {
		taken[name] = true
		fams = append(fams, Family{Name: name, Type: typ, Help: MetricHelp[name], Samples: []Sample{s}})
	}
	merged := map[string]int64{}
	for k, v := range tr.Counters {
		merged[promName(k)] += v
	}
	for _, name := range sortedKeys(merged) {
		add(name, "counter", Sample{Value: float64(merged[name])})
	}
	for _, k := range sortedKeys(tr.Gauges) {
		if name := promName(k); !taken[name] {
			add(name, "gauge", Sample{Value: tr.Gauges[k]})
		}
	}
	for _, k := range sortedKeys(tr.Histograms) {
		if name := promName(k); !taken[name] {
			rec := tr.Histograms[k]
			add(name, "histogram", Sample{Hist: &rec})
		}
	}
	return fams
}

// promValue renders a sample value: integral values below 2^53 as plain
// integers (so counts read as counts), everything else like promFloat.
func promValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return promFloat(v)
}

// promFloat renders a float the way Prometheus expects: shortest exact
// decimal, no exponent for ordinary magnitudes.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promEscapeHelp escapes a HELP string per the exposition format:
// backslashes and newlines only.
func promEscapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// promEscapeLabel escapes a label value per the exposition format:
// backslashes, double quotes and newlines.
func promEscapeLabel(s string) string {
	return strings.ReplaceAll(promEscapeHelp(s), `"`, `\"`)
}

// promName maps a dotted metric name onto the Prometheus charset,
// replacing every character outside [a-zA-Z0-9_:] with an underscore and
// prefixing a leading digit.
func promName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			b.WriteByte('_')
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}
