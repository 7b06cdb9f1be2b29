package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	h := r.Histogram("y")
	h.Observe(1)
	r.Gauge("g", func() float64 { return 1 })
	if _, ok := r.GaugeValue("g"); ok {
		t.Fatal("nil registry returned a gauge")
	}
	var tr *Tracer
	tr.Complete("c", "n", 0, 0, 0, 10)
	tr.Instant("c", "n", 0, 0, 0)
	if tr.Len() != 0 {
		t.Fatal("nil tracer recorded events")
	}
	if r.Tracer() != nil {
		t.Fatal("nil registry has a tracer")
	}
}

func TestCounterHistogramGaugeRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("engine.calls")
	c.Inc()
	c.Add(4)
	if got := r.Counter("engine.calls").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	h := r.Histogram("lat")
	for _, v := range []float64{100, 200, 300} {
		h.Observe(v)
	}
	if h.Sample().N() != 3 || h.Sample().Mean() != 200 {
		t.Fatalf("histogram n=%d mean=%v", h.Sample().N(), h.Sample().Mean())
	}
	v := 7.5
	r.Gauge("util", func() float64 { return v })
	if got, ok := r.GaugeValue("util"); !ok || got != 7.5 {
		t.Fatalf("gauge = %v ok=%v", got, ok)
	}
	v = 9.25 // gauges sample at read time
	if got, _ := r.GaugeValue("util"); got != 9.25 {
		t.Fatalf("gauge resample = %v", got)
	}
}

func TestTraceJSONValidAndDeterministic(t *testing.T) {
	build := func() []byte {
		tr := NewTracer()
		tr.Complete("rpc", "call.Eager", 0, 1, 1000, 4500, Arg{"size", 512}, Arg{"fn", uint32(3)})
		tr.Instant("fetch", "retry", 1, 2, 2000, Arg{"reason", "stale \"seq\""})
		tr.Complete("rndv", "cts_wait", 0, 1, 3000, 3600)
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatal("trace export not byte-identical across identical runs")
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, a)
	}
	if len(doc.TraceEvents) != 3 || doc.DisplayTimeUnit != "ns" {
		t.Fatalf("parsed %d events, unit %q", len(doc.TraceEvents), doc.DisplayTimeUnit)
	}
	ev := doc.TraceEvents[0]
	if ev.Ph != "X" || ev.TS != 1.0 || ev.Dur != 3.5 {
		t.Fatalf("complete event = %+v (ts/dur in µs)", ev)
	}
	if ev.Args["size"] != float64(512) {
		t.Fatalf("args = %v", ev.Args)
	}
	if doc.TraceEvents[1].Args["reason"] != `stale "seq"` {
		t.Fatalf("escaped arg = %v", doc.TraceEvents[1].Args)
	}
}

func TestTracePIDOffset(t *testing.T) {
	tr := NewTracer()
	tr.Complete("c", "a", 1, 0, 0, 1)
	tr.SetPIDOffset(100)
	tr.Complete("c", "b", 1, 0, 0, 1)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "\"pid\":1,") || !strings.Contains(out, "\"pid\":101,") {
		t.Fatalf("pid offset not applied:\n%s", out)
	}
}

func TestTraceNegativeDurationClamped(t *testing.T) {
	tr := NewTracer()
	tr.Complete("c", "n", 0, 0, 500, 400) // end before start
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"dur\":0.000") {
		t.Fatalf("negative duration not clamped:\n%s", buf.String())
	}
}
