package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestCounterGaugeBasics covers the single-threaded contracts.
func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("traces")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("traces") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("rate")
	g.Set(2.5)
	g.Set(3.25)
	if got := g.Value(); got != 3.25 {
		t.Fatalf("gauge = %v, want 3.25", got)
	}
}

// TestHistogramBuckets pins the bucket boundary convention: v lands in
// the first bucket whose upper bound is >= v, overflow in the +Inf
// bucket.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 10, 99, 1000} {
		h.Observe(v)
	}
	// 0.5→b0, 1→b0 (bound inclusive), 2→b1, 10→b1, 99→b2, 1000→+Inf.
	want := []int64{2, 2, 1, 1}
	for i := range h.buckets {
		if got := h.buckets[i].Load(); got != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+2+10+99+1000; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

// TestNilSafety exercises every instrument method through a nil
// registry and nil instruments — the disabled-instrumentation default
// must be inert, not a panic.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter holds state")
	}
	g := r.Gauge("y")
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge holds state")
	}
	h := r.Histogram("z", []float64{1})
	h.Observe(3)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram holds state")
	}
	s := r.Snapshot()
	if s.Counters == nil || s.Gauges == nil || s.Histograms == nil {
		t.Fatal("nil registry snapshot has nil maps")
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatal(err)
	}
}

// TestNoopZeroAllocs pins the disabled-path allocation budget at
// exactly zero: the acquisition hot loop calls these per trace, and
// "metrics off" must cost nothing on the heap.
func TestNoopZeroAllocs(t *testing.T) {
	var r *Registry
	var c *Counter
	var g *Gauge
	var h *Histogram
	if allocs := testing.AllocsPerRun(200, func() {
		c.Add(1)
		c.Inc()
		g.Set(1)
		h.Observe(1)
		_ = r.Counter("x")
		_ = r.Gauge("y")
	}); allocs != 0 {
		t.Fatalf("disabled instruments allocate %.1f objects/op, want 0", allocs)
	}
}

// TestEnabledHotPathZeroAllocs pins the enabled steady-state path:
// resolving instruments is once-per-campaign, but Add/Set/Observe run
// per trace and must not allocate either.
func TestEnabledHotPathZeroAllocs(t *testing.T) {
	r := New()
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []float64{1, 10, 100, 1000})
	if allocs := testing.AllocsPerRun(200, func() {
		c.Add(3)
		g.Set(2.5)
		h.Observe(42)
	}); allocs != 0 {
		t.Fatalf("enabled instruments allocate %.1f objects/op, want 0", allocs)
	}
}

// TestConcurrentHammer drives counters, gauges and histograms from
// many goroutines (run under -race in CI): the instruments must be
// race-free and the counters exact.
func TestConcurrentHammer(t *testing.T) {
	r := New()
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hits")
			g := r.Gauge("last")
			h := r.Histogram("dist", []float64{10, 100, 1000})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != workers*perWorker {
		t.Fatalf("hammered counter = %d, want %d", got, workers*perWorker)
	}
	h := r.Histogram("dist", nil)
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	// CAS-accumulated sum is exact here: every observation is an
	// integer far below the float64 mantissa.
	wantSum := float64(workers) * float64(perWorker-1) * float64(perWorker) / 2
	if h.Sum() != wantSum {
		t.Fatalf("histogram sum = %v, want %v", h.Sum(), wantSum)
	}
}

// TestSnapshotDeterminism pins the export contract: two registries
// holding equal state serialize to byte-identical JSON (map keys
// sorted by encoding/json), independent of instrument creation order.
func TestSnapshotDeterminism(t *testing.T) {
	build := func(order []string) *Registry {
		r := New()
		for _, name := range order {
			r.Counter(name)
		}
		r.Counter("b").Add(2)
		r.Counter("a").Add(1)
		r.Counter("c").Add(3)
		r.Gauge("g2").Set(2)
		r.Gauge("g1").Set(1)
		r.Histogram("h", []float64{1, 2}).Observe(1.5)
		return r
	}
	j1, err := json.MarshalIndent(build([]string{"a", "b", "c"}).Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.MarshalIndent(build([]string{"c", "b", "a"}).Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("snapshot JSON depends on creation order:\n%s\nvs\n%s", j1, j2)
	}
	// Key order inside the serialized form must be sorted.
	ia, ib, ic := bytes.Index(j1, []byte(`"a"`)), bytes.Index(j1, []byte(`"b"`)), bytes.Index(j1, []byte(`"c"`))
	if !(ia < ib && ib < ic) {
		t.Fatalf("counter keys not sorted in JSON:\n%s", j1)
	}
}
