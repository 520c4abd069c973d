package obs

// registry.go is the metrics half of the package: hand-rolled counters,
// gauges, and histograms on sync/atomic (the repo takes no dependencies
// beyond the standard library), collected in a Registry that renders the
// Prometheus text exposition format — the exact surface a future mmserve
// mounts and the -metrics-addr listeners of mmnet/mmexp serve today.
//
// All instruments are safe for concurrent use: engine workers observe
// histograms from their own goroutines while an HTTP scrape reads them.

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d (d must be >= 0).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of exponential histogram buckets: bucket i
// holds observations in [2^(i-1), 2^i) with an upper bound of 2^i, so 48
// buckets cover sub-nanosecond through multi-day spans.
const histBuckets = 48

// Histogram accumulates int64 observations (the package uses nanoseconds)
// into power-of-two buckets, with an exact count, sum, and max.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// bucketFor maps an observation to its bucket index.
func bucketFor(v int64) int {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v)) // v in [2^(b-1), 2^b)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketFor(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the upper bound of the bucket containing the q-th observation, capped at
// the exact max. Power-of-two buckets make it accurate to a factor of two —
// plenty to tell a 100µs barrier wait from a 10ms one.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			bound := int64(1) << uint(i)
			if m := h.max.Load(); bound > m {
				bound = m
			}
			return bound
		}
	}
	return h.max.Load()
}

// Summary is one histogram's digest, used for bench rows and run footers.
type Summary struct {
	Count int64
	Sum   int64
	P50   int64
	P95   int64
	Max   int64
}

// Summarize digests the histogram.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.Count(), Sum: h.Sum(),
		P50: h.Quantile(0.50), P95: h.Quantile(0.95), Max: h.Max(),
	}
}

// kind tags a registered metric for the TYPE line.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// metric is one registered series: a family name, optional rendered labels
// (`{phase="step"}`), and exactly one live instrument.
type metric struct {
	name   string
	help   string
	kind   kind
	labels string // rendered label set including braces, or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry is an ordered collection of metrics rendering the Prometheus
// text format. Registration order is exposition order (families group their
// labeled series by first registration), which keeps /metrics diffable.
type Registry struct {
	mu    sync.Mutex
	items []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Labels renders a label set for registration, e.g. Labels("phase", "step")
// -> `{phase="step"}`. Pairs must alternate name, value.
func Labels(pairs ...string) string {
	if len(pairs) == 0 {
		return ""
	}
	s := "{"
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			s += ","
		}
		s += pairs[i] + `="` + pairs[i+1] + `"`
	}
	return s + "}"
}

// Counter registers and returns a counter series.
func (r *Registry) Counter(name, help, labels string) *Counter {
	c := &Counter{}
	r.add(&metric{name: name, help: help, kind: kindCounter, labels: labels, c: c})
	return c
}

// Gauge registers and returns a gauge series.
func (r *Registry) Gauge(name, help, labels string) *Gauge {
	g := &Gauge{}
	r.add(&metric{name: name, help: help, kind: kindGauge, labels: labels, g: g})
	return g
}

// Histogram registers and returns a histogram series.
func (r *Registry) Histogram(name, help, labels string) *Histogram {
	h := &Histogram{}
	r.add(&metric{name: name, help: help, kind: kindHistogram, labels: labels, h: h})
	return h
}

func (r *Registry) add(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.items = append(r.items, m)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4). HELP/TYPE headers are emitted once per
// family, before its first series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	items := make([]*metric, len(r.items))
	copy(items, r.items)
	r.mu.Unlock()

	seen := make(map[string]bool, len(items))
	for _, m := range items {
		if !seen[m.name] {
			seen[m.name] = true
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind); err != nil {
				return err
			}
		}
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s%s %d\n", m.name, m.labels, m.c.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s%s %d\n", m.name, m.labels, m.g.Value())
		case kindHistogram:
			err = writeHistogram(w, m)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram series: cumulative buckets with
// power-of-two le bounds (buckets that would repeat the previous cumulative
// count are skipped to keep the exposition short), then +Inf, sum, count.
func writeHistogram(w io.Writer, m *metric) error {
	labels := m.labels
	// Splice `le` into an existing label set: {a="b"} -> {a="b",le="..."}.
	open, close_ := "{", "}"
	if labels != "" {
		open, close_ = labels[:len(labels)-1]+",", "}"
	}
	var cum, prev int64
	for i := 0; i < histBuckets; i++ {
		n := m.h.buckets[i].Load()
		cum += n
		if n == 0 && cum == prev {
			continue
		}
		prev = cum
		if _, err := fmt.Fprintf(w, "%s_bucket%sle=\"%d\"%s %d\n", m.name, open, int64(1)<<uint(i), close_, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"%s %d\n", m.name, open, close_, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", m.name, labels, m.h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.name, labels, m.h.Count())
	return err
}
