package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tailPercentiles are the candidates for a timing's tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 98, 97.5, 95, 90, 75}

// tailNote describes a timing for the header: its sample count, its
// median and its tail, the highest candidate percentile with at least
// ten samples beyond it (none below forty samples), plus the p90 and
// the maximum, all in µs.
func tailNote(xs []float64) string {
	if len(xs) == 0 {
		return "0 samples"
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	tail := "none (fewer than 40 samples)"
	for _, p := range tailPercentiles {
		if float64(len(s))*(1-p/100) >= 10 {
			tail = fmt.Sprintf("p%g %.1f us", p, percentile(s, p))
			break
		}
	}
	return fmt.Sprintf("%d samples, p50 %.1f us, tail %s, p90 %.1f us, max %.1f us",
		len(s), percentile(s, 50), tail, percentile(s, 90), s[len(s)-1])
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapWatch samples the live heap (as marked by the last collection)
// every 10ms. Its median is steadier than its peak, which depends on
// where collections happen to fall.
type heapWatch struct {
	stop chan struct{}
	done chan float64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var live []float64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			live = append(live, float64(sample[0].Value.Uint64()))
			select {
			case <-h.stop:
				h.done <- median(live)
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the median in bytes.
func (h *heapWatch) Stop() float64 {
	close(h.stop)
	return <-h.done
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// heapObjects is the cumulative count of heap allocations.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// spansPerLayer caps the spans of one layer kept for the span file;
// durations of every span are kept regardless, for the per-layer
// figures.
const spansPerLayer = 2000

// span is one timed call from the benchmark into a layer. Start and
// End are nanoseconds since the tracer started; Parent is the id of the
// span that caused it (0 for none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory and writes them out when the run ends.
type tracer struct {
	t0       time.Time
	spans    []span
	recorded int64
	durs     map[string][]float64 // ns per span, by layer
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), durs: map[string][]float64{}}
}

// now is the tracer clock, in nanoseconds since it started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records one span and returns its id.
func (t *tracer) add(layer string, parent, start, end int64) int64 {
	t.recorded++
	t.durs[layer] = append(t.durs[layer], float64(end-start))
	if len(t.durs[layer]) <= spansPerLayer {
		t.spans = append(t.spans, span{ID: t.recorded, Parent: parent, Layer: layer, Start: start, End: end})
	}
	return t.recorded
}

// medianNs is the median span duration of a layer in nanoseconds.
func (t *tracer) medianNs(layer string) float64 { return median(t.durs[layer]) }

func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
