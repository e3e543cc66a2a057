package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"ffis/internal/campaignd"
	"ffis/internal/core"
)

// traceBuffer bounds each trace subscription's queue. A rep publishes at
// most a few thousand RunDone events and the subscriber only appends to
// slices, so this bound is never reached: core.events_dropped reads 0.
const traceBuffer = 1 << 14

// campaigndRoutes are the coordinator routes a worker drives.
var campaigndRoutes = []string{"lease", "records", "heartbeat", "complete"}

// tracer collects per-layer observations of traced reps: the run-event
// stream from core.EventBus, the coordinator's request latencies from a
// wrapped Coordinator.Handler, and round trips from a wrapped worker
// client. It accumulates across reps.
type tracer struct {
	mu sync.Mutex

	buses []*core.EventBus // open buses of the current rep
	subs  []*core.Subscription

	// Per-run stage costs from RunDone events.
	cloneUS, runUS, classifyUS []float64
	stageNs, simNs             int64
	runs                       int
	profileOps                 int64 // Σ over runs of the run's spec profile count
	profile                    map[string]int64

	// Traced wall time of all reps, for the pool idle fraction.
	wall time.Duration

	// campaignd observations.
	routeUS    map[string][]float64
	leaseEmpty int
	rttUS      []float64
	records    int
}

func newTracer() *tracer {
	return &tracer{profile: map[string]int64{}, routeUS: map[string][]float64{}}
}

// bus returns a new event bus subscribed to the tracer; closeBuses flushes
// and closes every bus handed out since the last call.
func (t *tracer) bus() *core.EventBus {
	b := core.NewEventBus()
	sub := b.Subscribe(traceBuffer, t.event)
	t.mu.Lock()
	t.buses = append(t.buses, b)
	t.subs = append(t.subs, sub)
	t.mu.Unlock()
	return b
}

func (t *tracer) closeBuses() {
	t.mu.Lock()
	buses := t.buses
	t.buses = nil
	t.mu.Unlock()
	for _, b := range buses {
		b.Close()
	}
}

func (t *tracer) event(ev core.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Kind {
	case core.EventSpecStart:
		t.profile[ev.Key] = ev.ProfileCount
	case core.EventRunDone:
		t.cloneUS = append(t.cloneUS, float64(ev.CloneMicros))
		t.runUS = append(t.runUS, float64(ev.WorkloadNanos)/1e3)
		t.classifyUS = append(t.classifyUS, float64(ev.ClassifyMicros))
		t.stageNs += (ev.CloneMicros+ev.ClassifyMicros)*1e3 + ev.WorkloadNanos
		t.simNs += ev.SimNanos
		t.profileOps += t.profile[ev.Key]
		t.runs++
	}
}

func (t *tracer) addWall(d time.Duration) {
	t.mu.Lock()
	t.wall += d
	t.mu.Unlock()
}

func (t *tracer) ingested(records int) {
	t.mu.Lock()
	t.records += records
	t.mu.Unlock()
}

// handler wraps the coordinator's HTTP handler, timing every request by
// route and counting lease polls that found nothing leasable.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := r.URL.Path[1:]
		cw := &captureWriter{ResponseWriter: w, capture: route == "lease"}
		t0 := time.Now()
		next.ServeHTTP(cw, r)
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		var resp campaignd.LeaseResponse
		empty := cw.capture && json.Unmarshal(cw.body.Bytes(), &resp) == nil && resp.Retry
		t.mu.Lock()
		t.routeUS[route] = append(t.routeUS[route], us)
		if empty {
			t.leaseEmpty++
		}
		t.mu.Unlock()
	})
}

// captureWriter keeps a copy of the response body when capture is set.
type captureWriter struct {
	http.ResponseWriter
	capture bool
	body    bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if c.capture {
		c.body.Write(p)
	}
	return c.ResponseWriter.Write(p)
}

// client returns a copy of c whose transport times each round trip.
func (t *tracer) client(c *http.Client) *http.Client {
	next := c.Transport
	if next == nil {
		next = http.DefaultTransport
	}
	out := *c
	out.Transport = rttTransport{t: t, next: next}
	return &out
}

type rttTransport struct {
	t    *tracer
	next http.RoundTripper
}

func (rt rttTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := rt.next.RoundTrip(req)
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	rt.t.mu.Lock()
	rt.t.rttUS = append(rt.t.rttUS, us)
	rt.t.mu.Unlock()
	return resp, err
}

// metrics renders the traced observations as per-layer metrics. Layers a
// workload never reaches (the coordinator, outside distributed_grid) read 0.
func (t *tracer) metrics() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := map[string]float64{}
	put := func(name string, xs []float64) {
		m[name+".p50"] = percentile(xs, 0.50)
		m[name+".p99"] = percentile(xs, 0.99)
	}
	put("core.clone_us", t.cloneUS)
	put("apps.run_us", t.runUS)
	put("classify.classify_us", t.classifyUS)
	m["core.pool_idle_frac"] = 0
	if t.wall > 0 {
		m["core.pool_idle_frac"] = 1 - float64(t.stageNs)/(float64(t.wall.Nanoseconds())*slots)
	}
	var dropped int64
	for _, s := range t.subs {
		dropped += s.Dropped()
	}
	m["core.events_dropped"] = float64(dropped)
	m["core.profile_ops_per_run"], m["vfs.sim_ms_per_run"] = 0, 0
	if t.runs > 0 {
		m["core.profile_ops_per_run"] = float64(t.profileOps) / float64(t.runs)
		m["vfs.sim_ms_per_run"] = float64(t.simNs) / 1e6 / float64(t.runs)
	}
	for _, route := range campaigndRoutes {
		put("campaignd."+route+"_us", t.routeUS[route])
	}
	m["campaignd.lease_empty"] = float64(t.leaseEmpty)
	m["campaignd.records_per_post"] = 0
	if posts := len(t.routeUS["records"]); posts > 0 {
		m["campaignd.records_per_post"] = float64(t.records) / float64(posts)
	}
	m["campaignd.client_rtt_us.p50"] = percentile(t.rttUS, 0.50)
	return m
}

// percentile is the nearest-rank q-quantile of xs, 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}
