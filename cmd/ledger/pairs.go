package main

import (
	"archive/tar"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"
)

// side is one revision under comparison: its exported tree, the benchmark
// binary built from it, and its runs in the order they ran.
type side struct {
	name, rev, sha, dir, bin string
	runs                     []run
}

// run is what one benchmark run reports that pairs compares.
type run struct {
	opsPerS, allocs, allocBytes float64
	digest                      string
}

func pairs(args []string) error {
	fs := flag.NewFlagSet("pairs", flag.ContinueOnError)
	a := fs.String("a", "HEAD^", "revision A, the base")
	b := fs.String("b", "HEAD", "revision B, the change")
	workload := fs.String("workload", "", "benchmark workload (required)")
	n := fs.Int("n", 10, "pairs to run")
	seed := fs.Int("seed", 1, "workload seed")
	dir := fs.String("dir", "", "directory for the exported trees (default: a temporary one, removed afterwards)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workload == "" || *n < 1 {
		return errors.New("pairs needs -workload and a positive -n")
	}
	root := *dir
	if root == "" {
		tmp, err := os.MkdirTemp("", "ledger-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}
	sides := [2]*side{{name: "a", rev: *a}, {name: "b", rev: *b}}
	for _, s := range sides {
		if err := s.prepare(root); err != nil {
			return err
		}
	}
	benchArgs := []string{"--workload", *workload, "--seed", strconv.Itoa(*seed), "--seconds", "4", "--trace", "0"}
	began := time.Now()
	for i := 0; i < *n; i++ {
		for _, s := range order(i, sides) {
			r, err := s.run(benchArgs)
			if err != nil {
				return fmt.Errorf("pair %d, side %s (%s): %w", i+1, s.name, s.rev, err)
			}
			s.runs = append(s.runs, r)
			fmt.Fprintf(os.Stderr, "pair %d/%d %s: %.1f ops/s\n", i+1, *n, s.name, r.opsPerS)
		}
	}
	fmt.Printf("ledger pairs: %s, seed %d, 4 s per run, %d pairs in ABBA order\n", *workload, *seed, *n)
	report(os.Stdout, sides, time.Since(began))
	return nil
}

// order is pair i's running order: A first when i mod 4 is 0 or 3
// (A B, B A, B A, A B, ...), so each side runs first equally often and
// neither always follows the other.
func order(i int, s [2]*side) [2]*side {
	if i%4 == 0 || i%4 == 3 {
		return s
	}
	return [2]*side{s[1], s[0]}
}

// prepare exports the side's revision into root/name and builds its
// benchmark there as bench/run.sh does (no network, no workspace, the
// local toolchain), adding only -modcacherw so that a later run can
// remove the tree. The Go build cache is the caller's: it is
// content-addressed, so the two builds cannot mix, and a fresh one would
// rebuild the standard library for each side.
func (s *side) prepare(root string) error {
	out, err := exec.Command("git", "rev-parse", "--verify", s.rev+"^{commit}").Output()
	if err != nil {
		return fmt.Errorf("resolve %s: %w", s.rev, err)
	}
	s.sha = strings.TrimSpace(string(out))
	s.dir = filepath.Join(root, s.name)
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	if err := export(s.sha, s.dir); err != nil {
		return fmt.Errorf("export %s: %w", s.rev, err)
	}
	build := filepath.Join(s.dir, ".bench_build")
	s.bin = filepath.Join(build, "hatbench")
	cmd := exec.Command("go", "build", "-o", s.bin, ".")
	cmd.Dir = filepath.Join(s.dir, "bench")
	cmd.Env = append(os.Environ(), "GOPATH="+filepath.Join(build, "gopath"),
		"XDG_CONFIG_HOME="+filepath.Join(build, "config"),
		"GOFLAGS=-mod=mod -modcacherw", "GOTOOLCHAIN=local", "GOPROXY=off", "GOWORK=off")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build %s's benchmark: %w", s.rev, err)
	}
	return nil
}

// export writes the files committed at sha into dst, as git archive
// lists them; the repository's own .git is only read.
func export(sha, dst string) error {
	cmd := exec.Command("git", "archive", "--format=tar", sha)
	cmd.Stderr = os.Stderr
	stream, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	if err := untar(tar.NewReader(stream), dst); err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return err
	}
	return cmd.Wait()
}

func untar(tr *tar.Reader, dst string) error {
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if !filepath.IsLocal(h.Name) {
			return fmt.Errorf("archive entry %q leaves the tree", h.Name)
		}
		path := filepath.Join(dst, h.Name)
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeSymlink:
			err = os.Symlink(h.Linkname, path)
		case tar.TypeReg:
			err = writeFile(path, tr, h.FileInfo().Mode().Perm())
		}
		if err != nil {
			return err
		}
	}
}

func writeFile(path string, r io.Reader, mode os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, mode)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run runs the side's benchmark once, from the root of its tree as
// bench/run.sh does, and reads its report.
func (s *side) run(args []string) (run, error) {
	cmd := exec.Command(s.bin, args...)
	cmd.Dir = s.dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return run{}, err
	}
	return parseRun(out)
}

var digestRE = regexp.MustCompile(`sim_digest ([0-9a-f]+)`)

// parseRun reads a run's figures from the benchmark's output: the metrics
// from its last line (the JSON line), the sim_digest from its table
// header.
func parseRun(out []byte) (run, error) {
	text := strings.TrimSpace(string(out))
	var last struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(text[strings.LastIndexByte(text, '\n')+1:]), &last); err != nil {
		return run{}, fmt.Errorf("the last line of the output is not the benchmark's JSON line: %w", err)
	}
	if !last.Correct {
		return run{}, errors.New("the benchmark found its outputs incorrect")
	}
	m := digestRE.FindStringSubmatch(text)
	if m == nil {
		return run{}, errors.New("no sim_digest in the output")
	}
	r := run{digest: m[1]}
	for name, dst := range map[string]*float64{
		"host_ops_per_s": &r.opsPerS, "host_allocs_per_op": &r.allocs, "host_alloc_bytes_per_op": &r.allocBytes,
	} {
		v, ok := last.Metrics[name]
		if !ok {
			return run{}, fmt.Errorf("no %s in the JSON line", name)
		}
		*dst = v.Value
	}
	return r, nil
}

// aaShift is the shift, as a share of a's median, below which an
// interval that excludes 0 is not taken as a difference: A/A runs (one
// commit on both sides) have read shifts of up to 1.26 %, three of 31
// with intervals that excluded 0 (EXPERIMENTS.md, "One copy per reply").
const aaShift = 0.015

// report prints the runs pair by pair, then the comparison.
func report(w io.Writer, s [2]*side, elapsed time.Duration) {
	a, b := s[0], s[1]
	fmt.Fprintf(w, "  a = %s (%.12s)   b = %s (%.12s)\n", a.rev, a.sha, b.rev, b.sha)
	fmt.Fprintf(w, "%5s %6s %16s %16s %12s\n", "pair", "first", "a ops/s", "b ops/s", "b − a")
	wins := 0
	for i := range a.runs {
		x, y := a.runs[i].opsPerS, b.runs[i].opsPerS
		if y > x {
			wins++
		}
		fmt.Fprintf(w, "%5d %6s %16.1f %16.1f %+12.1f\n", i+1, order(i, s)[0].name, x, y, y-x)
	}
	ops := func(sd *side) []float64 { return field(sd.runs, func(r run) float64 { return r.opsPerS }) }
	qa, qb := quartilesOf(ops(a)), quartilesOf(ops(b))
	fmt.Fprintf(w, "host_ops_per_s %12s %12s %12s %12s\n", "median", "q1", "q3", "IQR")
	fmt.Fprintf(w, "  a            %12.1f %12.1f %12.1f %12.1f\n", qa[1], qa[0], qa[2], qa[2]-qa[0])
	fmt.Fprintf(w, "  b            %12.1f %12.1f %12.1f %12.1f\n", qb[1], qb[0], qb[2], qb[2]-qb[0])
	est, lo, hi, conf, ok := shift(ops(a), ops(b), 0.05)
	fmt.Fprintf(w, "shift b − a (Hodges–Lehmann): %+.1f ops/s (%+.2f %% of a's median)\n", est, 100*est/qa[1])
	if ok {
		verdict := "contains 0"
		if lo > 0 || hi < 0 {
			verdict = "excludes 0"
			if math.Abs(est) < aaShift*qa[1] {
				verdict = fmt.Sprintf("excludes 0, but the shift is under %.1f %% of a's median, which A/A runs have read: unresolved", 100*aaShift)
			}
		}
		fmt.Fprintf(w, "  %.1f %% interval (Wilcoxon signed-rank over the pairs): [%+.1f, %+.1f], %s\n", 100*conf, lo, hi, verdict)
	} else {
		fmt.Fprintf(w, "  too few runs for a 95 %% interval\n")
	}
	rule := "not met"
	if 10*wins >= 9*len(a.runs) && qb[1]-qa[1] > qa[2]-qa[0] {
		rule = "met"
	}
	fmt.Fprintf(w, "b ahead in %d of %d pairs; gain rule (≥ 9/10 pairs, median gap > a's IQR): %s\n", wins, len(a.runs), rule)
	median := func(sd *side, get func(run) float64) float64 { return quartilesOf(field(sd.runs, get))[1] }
	allocs := func(r run) float64 { return r.allocs }
	bytes := func(r run) float64 { return r.allocBytes }
	fmt.Fprintf(w, "host_allocs_per_op       a %.6g   b %.6g (medians)\n", median(a, allocs), median(b, allocs))
	fmt.Fprintf(w, "host_alloc_bytes_per_op  a %.6g   b %.6g (medians)\n", median(a, bytes), median(b, bytes))
	da, db := digests(a.runs), digests(b.runs)
	agree := "disagree"
	if len(da) == 1 && da[0] == strings.Join(db, " ") {
		agree = "agree"
	}
	fmt.Fprintf(w, "sim_digest a %s   b %s: %s\n", strings.Join(da, " "), strings.Join(db, " "), agree)
	fmt.Fprintf(w, "wall time %.1f s, %.1f s per pair\n", elapsed.Seconds(), elapsed.Seconds()/float64(len(a.runs)))
}

func field(rs []run, get func(run) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = get(r)
	}
	return out
}

// digests lists the distinct digests of rs in the order they first came.
func digests(rs []run) []string {
	var out []string
	for _, r := range rs {
		if !slices.Contains(out, r.digest) {
			out = append(out, r.digest)
		}
	}
	return out
}
