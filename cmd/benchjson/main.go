// Command benchjson turns `go test -bench` text output into the
// machine-readable BENCH_<n>.json benchmark baseline this repo commits per
// PR, and compares two such baselines to gate CI on performance
// regressions — the "machine-class workload checks" pattern: every speed
// claim gets a recorded trajectory, and the hot-path benchmarks cannot
// silently regress past budget.
//
// Convert (default mode; reads stdin when no file is given):
//
//	go test -run=NONE -bench 'ChipCycle|PDNStep' -benchmem -count 5 . \
//	    | benchjson -label BENCH_6 -o BENCH_6.json
//
// Repeated -count runs of one benchmark are aggregated: ns/op keeps the
// minimum (the least-interference estimate of the true cost), allocs/op
// and B/op keep the maximum (they are deterministic on a healthy hot path,
// so any spread is itself suspicious and the gate should see the worst).
// The `-N` GOMAXPROCS suffix of each result line is kept as `procs` (a
// line without one ran at GOMAXPROCS 1, the only case go test omits it), so
// runs at different -cpu settings stay apart, and the file records the
// converting host's CPU count and Go version: an ns/op means little
// without the machine it came from. Files of the v1 schema, which had
// none of the three, still load and compare.
//
// Compare (exit 1 on regression, 0 otherwise):
//
//	benchjson -compare -budget 0.10 -hot 'ChipCycle|PDNStep|StepCycle|CorpusBuild' \
//	    BENCH_6.json BENCH_new.json
//
// A hot-path benchmark regresses when its ns/op exceeds the baseline by
// more than the budget fraction, when a zero-alloc baseline gains any
// allocation at all (the zero-alloc contract is exact), when an allocating
// baseline's allocs/op grows past the same budget fraction (parallel
// builders jitter by a few allocs run to run from goroutine scheduling, so
// an exact gate there would flake), or when the benchmark disappears from
// the new run (a renamed benchmark silently un-gates itself otherwise).
// Cold benchmarks are reported but never fail the gate. When the baseline file does not exist — the first gated run —
// the comparison is skipped gracefully with exit 0. The literal baseline
// name "auto" picks the highest-numbered BENCH_*.json in the current
// directory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's aggregated measurement.
type Result struct {
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the benchmark ran at: its `-N` name
	// suffix, or 1 for a line without one (go test omits the suffix
	// only at GOMAXPROCS 1). 0 means unknown, as in v1 files.
	Procs       int     `json:"procs,omitempty"`
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// MemReported records whether -benchmem columns were present; without
	// it a zero AllocsPerOp is "unknown", not "allocation-free".
	MemReported bool `json:"mem_reported"`
}

// File is the BENCH_<n>.json schema.
type File struct {
	Schema string `json:"schema"`
	Label  string `json:"label,omitempty"`
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch"`
	CPU    string `json:"cpu,omitempty"`
	// NumCPU and GoVersion describe the host and toolchain that converted
	// the run (v2; absent from v1 files).
	NumCPU     int      `json:"nproc,omitempty"`
	GoVersion  string   `json:"go_version,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

const (
	schemaID   = "vsmooth-bench/v2"
	schemaV1ID = "vsmooth-bench/v1" // still read; lacks procs, nproc, go_version
)

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkChipCycle-8   4047680   294.8 ns/op   0 B/op   0 allocs/op
//	BenchmarkCorpusBuild/workers=2-8   33   35018003 ns/op
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-(\d+))?\s+\d+\s+([0-9.e+]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// parse reads `go test -bench` text output and returns aggregated results
// plus the goos/goarch/cpu header values it saw. Results aggregate per
// name and procs.
func parse(r io.Reader) (*File, error) {
	f := &File{Schema: schemaID, GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	type key struct {
		name  string
		procs int
	}
	byKey := map[key]*Result{}
	var order []key

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			f.GoOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			f.GoArch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			f.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		k := key{name: m[1], procs: 1}
		if m[2] != "" {
			k.procs, _ = strconv.Atoi(m[2])
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad ns/op in %q: %v", line, err)
		}
		res, ok := byKey[k]
		if !ok {
			res = &Result{Name: k.name, Procs: k.procs, NsPerOp: ns}
			byKey[k] = res
			order = append(order, k)
		}
		res.Runs++
		if ns < res.NsPerOp {
			res.NsPerOp = ns
		}
		if m[4] != "" {
			b, _ := strconv.ParseInt(m[4], 10, 64)
			if b > res.BytesPerOp {
				res.BytesPerOp = b
			}
			res.MemReported = true
		}
		if m[5] != "" {
			a, _ := strconv.ParseInt(m[5], 10, 64)
			if a > res.AllocsPerOp {
				res.AllocsPerOp = a
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, k := range order {
		f.Benchmarks = append(f.Benchmarks, *byKey[k])
	}
	return f, nil
}

// load reads a BENCH_<n>.json file.
func load(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %v", path, err)
	}
	if f.Schema != schemaID && f.Schema != schemaV1ID {
		return nil, fmt.Errorf("benchjson: %s: unknown schema %q (want %q or %q)", path, f.Schema, schemaID, schemaV1ID)
	}
	return &f, nil
}

// latestBaseline returns the highest-numbered BENCH_*.json in dir, or ""
// when none exists.
func latestBaseline(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, m := range matches {
		base := strings.TrimSuffix(filepath.Base(m), ".json")
		n, err := strconv.Atoi(strings.TrimPrefix(base, "BENCH_"))
		if err != nil {
			continue
		}
		if n > bestN {
			best, bestN = m, n
		}
	}
	return best, nil
}

// regression describes one gate violation.
type regression struct {
	name   string
	reason string
}

// compare applies the gate: hot benchmarks (name matches hot) fail on
// ns/op past budget, allocs/op regression (exact when the baseline is
// zero, budget-relative otherwise), or disappearance. It returns the
// violations and a human-readable report of every benchmark present in
// both files.
func compare(base, next *File, hot *regexp.Regexp, budget float64) ([]regression, string) {
	var regs []regression
	var report strings.Builder
	for _, old := range base.Benchmarks {
		isHot := hot.MatchString(old.Name)
		nu, ok := match(old, next.Benchmarks)
		if !ok {
			if isHot {
				regs = append(regs, regression{old.Name, "missing from new run (renamed or deleted hot benchmark un-gates itself)"})
			}
			continue
		}
		delta := (nu.NsPerOp - old.NsPerOp) / old.NsPerOp
		tag := "    "
		if isHot {
			tag = "HOT "
		}
		fmt.Fprintf(&report, "%s%-46s %12.1f -> %12.1f ns/op (%+.1f%%)  allocs %d -> %d",
			tag, old.Name, old.NsPerOp, nu.NsPerOp, 100*delta, old.AllocsPerOp, nu.AllocsPerOp)
		if old.Procs != nu.Procs {
			fmt.Fprintf(&report, "  procs %d -> %d", old.Procs, nu.Procs)
		}
		report.WriteByte('\n')
		if !isHot {
			continue
		}
		if delta > budget {
			regs = append(regs, regression{old.Name,
				fmt.Sprintf("ns/op %.1f -> %.1f (%+.1f%%, budget %+.1f%%)", old.NsPerOp, nu.NsPerOp, 100*delta, 100*budget)})
		}
		if old.MemReported && nu.MemReported {
			switch {
			case old.AllocsPerOp == 0 && nu.AllocsPerOp > 0:
				regs = append(regs, regression{old.Name,
					fmt.Sprintf("allocs/op 0 -> %d (zero-alloc contract is exact)", nu.AllocsPerOp)})
			case old.AllocsPerOp > 0 && float64(nu.AllocsPerOp) > float64(old.AllocsPerOp)*(1+budget):
				regs = append(regs, regression{old.Name,
					fmt.Sprintf("allocs/op %d -> %d (budget %+.1f%%)", old.AllocsPerOp, nu.AllocsPerOp, 100*budget)})
			}
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].name < regs[j].name })
	return regs, report.String()
}

// match finds old's counterpart among next: the same name, at the same
// procs when next ran it at that setting, else at whichever setting next
// has (the report shows both procs, so a cross-host pair is visible).
func match(old Result, next []Result) (Result, bool) {
	var found Result
	ok := false
	for _, nu := range next {
		if nu.Name != old.Name {
			continue
		}
		if nu.Procs == old.Procs {
			return nu, true
		}
		if !ok {
			found, ok = nu, true
		}
	}
	return found, ok
}

func main() {
	var (
		compareMode = flag.Bool("compare", false, "compare baseline.json new.json instead of converting")
		budget      = flag.Float64("budget", 0.10, "ns/op regression budget as a fraction (compare mode)")
		hotExpr     = flag.String("hot", "ChipCycle|PDNStep|StepCycle|CorpusBuild", "regexp of hot-path benchmarks the gate fails on (compare mode)")
		label       = flag.String("label", "", "label recorded in the output (convert mode)")
		out         = flag.String("o", "", "output file (convert mode; default stdout)")
	)
	flag.Parse()

	if *compareMode {
		os.Exit(runCompare(flag.Args(), *hotExpr, *budget))
	}
	if err := runConvert(flag.Args(), *label, *out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func runConvert(args []string, label, out string) error {
	in := io.Reader(os.Stdin)
	if len(args) > 1 {
		return fmt.Errorf("benchjson: convert mode takes at most one input file, got %d", len(args))
	}
	if len(args) == 1 {
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	file, err := parse(in)
	if err != nil {
		return err
	}
	if len(file.Benchmarks) == 0 {
		return fmt.Errorf("benchjson: no benchmark lines found in input")
	}
	file.Label = label
	enc, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

func runCompare(args []string, hotExpr string, budget float64) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two arguments: baseline.json new.json (baseline may be \"auto\")")
		return 2
	}
	hot, err := regexp.Compile(hotExpr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: bad -hot regexp: %v\n", err)
		return 2
	}
	basePath := args[0]
	if basePath == "auto" {
		basePath, err = latestBaseline(".")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			return 2
		}
		if basePath == "" {
			fmt.Println("benchjson: no BENCH_*.json baseline found — first gated run, skipping comparison")
			return 0
		}
	}
	base, err := load(basePath)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Printf("benchjson: baseline %s does not exist — skipping comparison\n", basePath)
			return 0
		}
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	next, err := load(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	regs, report := compare(base, next, hot, budget)
	fmt.Printf("benchjson: %s vs %s (budget %+.0f%% ns/op on /%s/)\n", basePath, args[1], 100*budget, hotExpr)
	fmt.Print(report)
	if len(regs) > 0 {
		fmt.Printf("\nFAIL: %d hot-path regression(s):\n", len(regs))
		for _, r := range regs {
			fmt.Printf("  %s: %s\n", r.name, r.reason)
		}
		return 1
	}
	fmt.Println("PASS: no hot-path regressions")
	return 0
}
