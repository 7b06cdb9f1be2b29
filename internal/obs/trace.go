package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Tracer records sim-time-stamped events and exports them in the
// chrome://tracing JSON array format (load the file in chrome://tracing
// or https://ui.perfetto.dev). Timestamps are virtual nanoseconds as
// reported by the DES clock; callers pass them explicitly so the tracer
// itself has no clock dependency.
//
// Events are stored and exported in insertion order. The DES executes
// processes one at a time in a deterministic order, so two identical runs
// emit byte-identical trace files.
//
// The nil *Tracer is a valid no-op, but a caller with a name or arguments
// to build tests it first (package doc, constraint 1).
type Tracer struct {
	events []traceEvent
	pidOff int
}

// Arg is one ordered key/value annotation on a trace event. V may be a
// string, integer, or float; anything else renders via %v as a string.
type Arg struct {
	K string
	V any
}

type traceEvent struct {
	name, cat string
	ph        byte  // 'X' complete, 'i' instant
	ts        int64 // event start, virtual ns
	dur       int64 // 'X' only
	pid, tid  int
	args      []Arg
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// SetPIDOffset shifts the pid of subsequently recorded events. Sweep
// harnesses that run many independent simulations into one trace bump the
// offset per run so node timelines from different runs do not overlap.
func (t *Tracer) SetPIDOffset(off int) {
	if t != nil {
		t.pidOff = off
	}
}

// Len returns the number of recorded events (0 for nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Complete records a finished span: [start, end) virtual ns.
func (t *Tracer) Complete(cat, name string, pid, tid int, start, end int64, args ...Arg) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.events = append(t.events, traceEvent{
		name: name, cat: cat, ph: 'X', ts: start, dur: end - start,
		pid: pid + t.pidOff, tid: tid, args: args,
	})
}

// Instant records a point event at ts virtual ns.
func (t *Tracer) Instant(cat, name string, pid, tid int, ts int64, args ...Arg) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{
		name: name, cat: cat, ph: 'i', ts: ts,
		pid: pid + t.pidOff, tid: tid, args: args,
	})
}

// WriteJSON emits the chrome://tracing "JSON object format": a
// traceEvents array plus displayTimeUnit. Timestamps convert from virtual
// ns to the format's microseconds with fixed three-decimal precision, so
// output is byte-stable across runs.
func (t *Tracer) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString("{\"traceEvents\":[\n")
	for i, ev := range t.events {
		if i > 0 {
			b.WriteString(",\n")
		}
		b.WriteString("{\"name\":")
		writeJSONString(&b, ev.name)
		b.WriteString(",\"cat\":")
		writeJSONString(&b, ev.cat)
		fmt.Fprintf(&b, ",\"ph\":\"%c\",\"ts\":%s", ev.ph, microTS(ev.ts))
		if ev.ph == 'X' {
			fmt.Fprintf(&b, ",\"dur\":%s", microTS(ev.dur))
		}
		if ev.ph == 'i' {
			b.WriteString(",\"s\":\"t\"") // thread-scoped instant
		}
		fmt.Fprintf(&b, ",\"pid\":%d,\"tid\":%d", ev.pid, ev.tid)
		if len(ev.args) > 0 {
			b.WriteString(",\"args\":{")
			for j, a := range ev.args {
				if j > 0 {
					b.WriteString(",")
				}
				writeJSONString(&b, a.K)
				b.WriteString(":")
				writeJSONValue(&b, a.V)
			}
			b.WriteString("}")
		}
		b.WriteString("}")
	}
	b.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// microTS renders a ns quantity in the trace format's µs with fixed
// 3-decimal (i.e. exact ns) precision.
func microTS(ns int64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}

func writeJSONString(b *strings.Builder, s string) {
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		default:
			if r < 0x20 {
				fmt.Fprintf(b, `\u%04x`, r)
			} else {
				b.WriteRune(r)
			}
		}
	}
	b.WriteByte('"')
}

func writeJSONValue(b *strings.Builder, v any) {
	switch x := v.(type) {
	case string:
		writeJSONString(b, x)
	case int:
		b.WriteString(strconv.Itoa(x))
	case int64:
		b.WriteString(strconv.FormatInt(x, 10))
	case uint32:
		b.WriteString(strconv.FormatUint(uint64(x), 10))
	case uint64:
		b.WriteString(strconv.FormatUint(x, 10))
	case float64:
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	case bool:
		b.WriteString(strconv.FormatBool(x))
	default:
		writeJSONString(b, fmt.Sprintf("%v", x))
	}
}
