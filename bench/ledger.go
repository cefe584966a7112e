package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"medsec/internal/obs"
)

// Span kinds. A root span is a whole set-up or repetition; its children
// are the benchmark's own calls into one layer.
const (
	kindSetup    = "setup"
	kindRun      = "run"
	kindAcquire  = "acquire"
	kindAnalysis = "analysis"
	kindProbe    = "probe"
)

// span is one timed call, in nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	// Workload identifies the set-up, repetition or probe pass the span
	// belongs to ("tvla_rpc/rep3"); spans of one repetition share it.
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// observer records one set-up, repetition or probe pass. A nil
// observer is an untraced pass: every method is a no-op and the
// registry it hands out is nil, which the library treats as off.
type observer struct {
	tr   *tracer
	reg  *obs.Registry
	id   string
	open []int // open span IDs; the innermost is the next span's parent
}

// observe starts a pass with the given workload id. A nil tracer gives
// a nil observer.
func (t *tracer) observe(id string, reg *obs.Registry) *observer {
	if t == nil {
		return nil
	}
	return &observer{tr: t, reg: reg, id: id}
}

func (o *observer) registry() *obs.Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

func (o *observer) begin(name, kind string) int {
	if o == nil {
		return -1
	}
	parent := -1
	if n := len(o.open); n > 0 {
		parent = o.open[n-1]
	}
	id := len(o.tr.spans)
	o.tr.spans = append(o.tr.spans, span{
		ID: id, Parent: parent, Name: name, Kind: kind, Workload: o.id,
		StartNS: time.Since(o.tr.t0).Nanoseconds(),
	})
	o.open = append(o.open, id)
	return id
}

func (o *observer) end(id int) {
	if o == nil {
		return
	}
	o.tr.spans[id].EndNS = time.Since(o.tr.t0).Nanoseconds()
	o.open = o.open[:len(o.open)-1]
}

// spanSeconds sums, per workload id, the durations of the non-root
// spans of one kind, or of the root spans when kind is a root kind.
func (t *tracer) spanSeconds(kind string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		root := s.Parent < 0
		if s.Kind == kind && root == (kind == kindSetup || kind == kindRun) {
			out[s.Workload] += s.seconds()
		}
	}
	return out
}

// runtimeCounters are the Go runtime's cumulative counters the ledger
// differences over the warm repetitions.
type runtimeCounters struct {
	allocs              float64 // heap objects allocated
	gcCPU, cpu, idleCPU float64 // runtime CPU-time estimates, seconds
	rusage              float64 // user+system CPU seconds from the kernel
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// readRuntime samples the counters. The runtime updates its CPU-class
// estimates at GC time, so callers collect first.
func readRuntime() (runtimeCounters, error) {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return runtimeCounters{}, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return runtimeCounters{allocs: v[0], gcCPU: v[1], cpu: v[2], idleCPU: v[3],
		rusage: tv(ru.Utime) + tv(ru.Stime)}, nil
}

// heapSampler polls the live heap size and keeps its maximum: the
// runtime exposes no high-water mark of its own.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends the sampler, waits for it, and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}

// layerCost is one layer's probe-estimated CPU time over the warm
// repetitions: its unit cost from the probe table times the work the
// workload gave it.
type layerCost struct {
	Layer    string  `json:"layer"`
	Seconds  float64 `json:"seconds"`
	ShareCPU float64 `json:"share_cpu"`
}

// traceDoc is the --trace-out file: everything the traced run kept in
// memory, written once when the run ends.
type traceDoc struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Workers  int                `json:"workers"`
	Spans    []span             `json:"spans"`
	Registry obs.Snapshot       `json:"registry"`
	Probes   map[string]float64 `json:"probes"`
	Layers   []layerCost        `json:"layers"`
	Metrics  map[string]metric  `json:"metrics"`
}

func (d *traceDoc) write(path string) error {
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
