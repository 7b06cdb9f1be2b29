// Command bench is the repository benchmark: six seeded workloads over
// the simulated HatRPC stack, measured on two clocks (sim_* = virtual time
// of the modelled cluster, host_*/setup_s = wall clock and allocations of
// the simulator itself), plus a traced pass that attributes cost to each
// layer. See README.md in this directory for every definition.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one workload (the driver's form)
//	bench [-seed N] [-repeats R] [-quick]                 all workloads, writes out/result.json
//	bench -compare A.json B.json                          regression table from two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// quickScale shortens every sim window for the smoke test.
const quickScale = 0.1

// tracedScale is the traced pass's share of the full window: spans for
// every request are kept in memory and written out, so it runs shorter.
const tracedScale = 0.25

type options struct {
	seed    int64
	seconds float64 // keep repeating until this much wall time has passed
	repeats int     // minimum repeats (never below 3 outside -quick)
	scale   float64
	outDir  string
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one workload run reports.
type workloadResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Repeats   int     `json:"repeats"`
	Attempted int     `json:"ops_attempted"`
	Failed    int     `json:"ops_failed"`
	Refused   int     `json:"ops_refused"`
	Samples   int     `json:"lat_samples"`
	TailQ     float64 `json:"tail_percentile"`
	SimDigest string  `json:"sim_digest"`
	// RawHostOpsPerS is ops ÷ wall seconds as this host happened to run,
	// for the record; host_ops_per_s is the calibrated figure.
	RawHostOpsPerS float64                `json:"host_ops_per_s_uncalibrated,omitempty"`
	EndToEnd       map[string]metricValue `json:"end_to_end"`
	Spread         map[string]float64     `json:"repeat_spread,omitempty"`
	PerLayer       map[string]metricValue `json:"per_layer,omitempty"`
	FirstError     string                 `json:"first_error,omitempty"`
}

// runTimed runs the untraced repeats of one workload and folds them into
// the end-to-end metrics: sim values must agree bit-for-bit across
// repeats, host values are medians.
func runTimed(w *workload, o options) (*workloadResult, error) {
	cal := newCalibrator()
	defer cal.stop()
	began := time.Now()
	var reps []repeat
	for len(reps) < o.repeats || time.Since(began).Seconds() < o.seconds {
		reps = append(reps, runRepeat(w, o.seed, o.scale, nil, cal))
	}
	first := reps[0]
	res := &workloadResult{
		Workload: w.name, Seed: o.seed, Repeats: len(reps),
		Attempted: first.attempt, Failed: first.failed, Refused: first.refused,
		Samples: first.samples, TailQ: first.tailQ, SimDigest: simDigest(first.sim),
		FirstError: first.firstErr,
		EndToEnd:   map[string]metricValue{}, Spread: map[string]float64{},
	}
	for i, r := range reps[1:] {
		if d := simDigest(r.sim); d != res.SimDigest {
			return res, fmt.Errorf("%s: repeat %d diverged from repeat 0 on %s (sim_digest %s vs %s): the simulation is not deterministic",
				w.name, i+1, firstDiff(first.sim, r.sim), d, res.SimDigest)
		}
	}
	// Host metrics: one value per repeat, reported as the median; the
	// rate's median is taken over every slice of every repeat.
	host := map[string][]float64{}
	var rates, raw []float64
	for _, r := range reps {
		ops := float64(r.attempt)
		host["setup_s"] = append(host["setup_s"], r.setupS)
		host["host_ops_per_s"] = append(host["host_ops_per_s"], median(r.rates))
		host["host_allocs_per_op"] = append(host["host_allocs_per_op"], float64(r.mallocs)/ops)
		host["host_alloc_bytes_per_op"] = append(host["host_alloc_bytes_per_op"], float64(r.bytes)/ops)
		rates = append(rates, r.rates...)
		raw = append(raw, ops/r.hostS)
	}
	res.RawHostOpsPerS = median(raw)
	for _, m := range endToEnd {
		if v, ok := first.sim[m.Name]; ok {
			res.EndToEnd[m.Name] = metricValue{v, m.Unit}
			continue
		}
		res.EndToEnd[m.Name] = metricValue{median(host[m.Name]), m.Unit}
		res.Spread[m.Name] = spread(host[m.Name])
	}
	res.EndToEnd["host_ops_per_s"] = metricValue{median(rates), "ops/s"}
	return res, nil
}

// contractLine is the last line of standard output in the driver's form.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printTable(title string, defs []metricDef, vals map[string]metricValue) {
	fmt.Printf("%s\n", title)
	for _, m := range defs {
		v, ok := vals[m.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-44s %18.6g %s\n", m.Name, v.Value, v.Unit)
	}
}

// runOne is the driver's form: one workload, end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1.
func runOne(w *workload, o options, traced bool) int {
	fmt.Printf("workload %s seed %d GOMAXPROCS %d (%s loop, %d clients, primary op %s)\n",
		w.name, o.seed, runtime.GOMAXPROCS(0), w.loop, w.clients, w.primary)
	var res *workloadResult
	var err error
	var metrics map[string]metricValue
	if traced {
		if res, err = runTraced(w, o, layerMicroRuns(o)); err == nil {
			metrics = res.PerLayer
			printTable("per-layer metrics (traced pass)", perLayer, metrics)
		}
	} else if res, err = runTimed(w, o); err == nil {
		metrics = res.EndToEnd
		printTable(fmt.Sprintf("end-to-end metrics (%d repeats, %d primary-op samples, tail = p%g, sim_digest %s)",
			res.Repeats, res.Samples, res.TailQ, res.SimDigest), endToEnd, metrics)
		fmt.Printf("  ops_attempted %d ops_failed %d ops_refused %d\n", res.Attempted, res.Failed, res.Refused)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if res.FirstError != "" {
		fmt.Println("first error:", res.FirstError)
	}
	line := contractLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: metrics}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

// suiteResult is out/result.json: the whole suite in one document.
type suiteResult struct {
	Schema         int               `json:"schema"`
	Seed           int64             `json:"seed"`
	GoMaxProcs     int               `json:"gomaxprocs"`
	NumCPU         int               `json:"num_cpu"`
	GoVersion      string            `json:"go_version"`
	ModelValidated bool              `json:"model_validated"`
	Clocks         map[string]string `json:"clocks"`
	Workloads      []*workloadResult `json:"workloads"`
}

// runSuite runs every workload untraced, then the traced pass, prints
// every metric by name and writes out/result.json and out/trace.json.
func runSuite(o options) int {
	suite := &suiteResult{
		Schema: 1, Seed: o.seed, GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(),
		// No hardware reference exists in this repository, so the model's
		// error against a real cluster is unknown and no figure is given.
		ModelValidated: false,
		Clocks: map[string]string{
			"sim_*":          "virtual time of the modelled cluster; deterministic per seed",
			"host_*,setup_s": "wall clock and allocations of the simulator on this host; noisy",
		},
	}
	code := 0
	micro := layerMicroRuns(o)
	for _, w := range workloads {
		res, err := runTimed(w, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		tres, err := runTraced(w, o, micro)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		res.PerLayer = tres.PerLayer
		fmt.Printf("== %s (%d repeats, %d ops, %d failed, %d refused, %d primary-op samples, tail = p%g, sim_digest %s)\n",
			w.name, res.Repeats, res.Attempted, res.Failed, res.Refused, res.Samples, res.TailQ, res.SimDigest)
		printTable("end-to-end", endToEnd, res.EndToEnd)
		printTable("per-layer", perLayer, res.PerLayer)
		if res.Failed+tres.Failed > 0 {
			fmt.Printf("FAILED OPS on %s: %s %s\n", w.name, res.FirstError, tres.FirstError)
			code = 1
		}
		suite.Workloads = append(suite.Workloads, res)
	}
	if err := writeJSON(filepath.Join(o.outDir, "result.json"), suite); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", filepath.Join(o.outDir, "result.json"))
	return code
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// finite reports whether every value of the set can be written as JSON.
func finite(vals map[string]metricValue) error {
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if v := vals[k].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", k, v)
		}
	}
	return nil
}

// defaultOutDir is bench/out from the repository root (how run.sh starts
// the program) and out from inside bench/ itself.
func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func main() {
	var (
		wname   = flag.String("workload", "", "run one workload in the driver's form (default: the whole suite)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 0, "keep repeating each workload until this much wall time has passed")
		trace   = flag.Int("trace", 0, "1 = traced pass, per-layer metrics; 0 = timed pass, end-to-end metrics")
		repeats = flag.Int("repeats", 5, "minimum repeats per workload (at least 3)")
		quick   = flag.Bool("quick", false, "smoke run: 1 repeat at a tenth of the scenario length")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
		mfest   = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the metric and workload tables")
		outDir  = flag.String("out", defaultOutDir(), "directory for result.json and trace.<workload>.json")
	)
	flag.Parse()
	if *mfest {
		b, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	o := options{seed: *seed, seconds: *seconds, repeats: *repeats, scale: 1, outDir: *outDir}
	if o.repeats < 3 {
		o.repeats = 3
	}
	if *quick {
		o.repeats, o.scale, o.seconds = 1, quickScale, 0
	}
	if *wname == "" {
		os.Exit(runSuite(o))
	}
	w := workloadByName(*wname)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *wname)
		os.Exit(2)
	}
	os.Exit(runOne(w, o, *trace == 1))
}
