package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: voltsmooth
cpu: AMD EPYC 7B13
BenchmarkChipCycle-8             4047680               294.8 ns/op             0 B/op          0 allocs/op
BenchmarkChipCycle-8             4100000               289.9 ns/op             0 B/op          0 allocs/op
BenchmarkChipCycle-8             3900000               301.2 ns/op             0 B/op          0 allocs/op
BenchmarkPDNStep-8              33000000                35.01 ns/op            0 B/op          0 allocs/op
BenchmarkPDNStep-8              34000000                34.62 ns/op            0 B/op          0 allocs/op
BenchmarkCorpusBuild/workers=2-8              33          35018003 ns/op
PASS
ok      voltsmooth      12.3s
`

func TestParseAggregatesRuns(t *testing.T) {
	f, err := parse(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if f.GoOS != "linux" || f.GoArch != "amd64" || f.CPU != "AMD EPYC 7B13" {
		t.Errorf("header = %s/%s/%q", f.GoOS, f.GoArch, f.CPU)
	}
	if len(f.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %+v", len(f.Benchmarks), f.Benchmarks)
	}
	cc := f.Benchmarks[0]
	if cc.Name != "BenchmarkChipCycle" {
		t.Errorf("first benchmark = %q, want BenchmarkChipCycle (procs suffix must be stripped)", cc.Name)
	}
	if cc.Runs != 3 {
		t.Errorf("ChipCycle runs = %d, want 3", cc.Runs)
	}
	if cc.NsPerOp != 289.9 {
		t.Errorf("ChipCycle ns/op = %g, want min across runs 289.9", cc.NsPerOp)
	}
	if !cc.MemReported || cc.AllocsPerOp != 0 {
		t.Errorf("ChipCycle mem = reported:%v allocs:%d, want reported 0 allocs", cc.MemReported, cc.AllocsPerOp)
	}
	cb := f.Benchmarks[2]
	if cb.Name != "BenchmarkCorpusBuild/workers=2" {
		t.Errorf("sub-benchmark name = %q", cb.Name)
	}
	if cb.MemReported {
		t.Error("CorpusBuild had no -benchmem columns but MemReported is true")
	}
	if cb.NsPerOp != 35018003 {
		t.Errorf("CorpusBuild ns/op = %g", cb.NsPerOp)
	}
}

func TestParseKeepsMaxAllocs(t *testing.T) {
	// A benchmark whose runs disagree on allocs must record the worst run,
	// not whichever happened to be fastest.
	in := `BenchmarkX-4   100   50.0 ns/op   16 B/op   1 allocs/op
BenchmarkX-4   100   40.0 ns/op   0 B/op   0 allocs/op
`
	f, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	x := f.Benchmarks[0]
	if x.NsPerOp != 40.0 || x.AllocsPerOp != 1 || x.BytesPerOp != 16 {
		t.Errorf("got ns=%g allocs=%d bytes=%d, want min-ns/max-allocs 40/1/16", x.NsPerOp, x.AllocsPerOp, x.BytesPerOp)
	}
}

func hotRE(t *testing.T) *regexp.Regexp {
	t.Helper()
	return regexp.MustCompile("ChipCycle|PDNStep|StepCycle|CorpusBuild")
}

func bench(name string, ns float64, allocs int64) Result {
	return Result{Name: name, Runs: 1, NsPerOp: ns, AllocsPerOp: allocs, MemReported: true}
}

func TestCompareWithinBudgetPasses(t *testing.T) {
	base := &File{Schema: schemaID, Benchmarks: []Result{
		bench("BenchmarkChipCycle", 300, 0),
		bench("BenchmarkFig01ProjectedSwings", 1000, 5),
	}}
	next := &File{Schema: schemaID, Benchmarks: []Result{
		bench("BenchmarkChipCycle", 325, 0),             // +8.3% < 10% budget
		bench("BenchmarkFig01ProjectedSwings", 5000, 9), // cold: never gates
	}}
	regs, report := compare(base, next, hotRE(t), 0.10)
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %+v\n%s", regs, report)
	}
	if !strings.Contains(report, "HOT BenchmarkChipCycle") {
		t.Errorf("report missing HOT tag:\n%s", report)
	}
}

func TestCompareFailsOnNsRegression(t *testing.T) {
	base := &File{Schema: schemaID, Benchmarks: []Result{bench("BenchmarkPDNStep", 35, 0)}}
	next := &File{Schema: schemaID, Benchmarks: []Result{bench("BenchmarkPDNStep", 42, 0)}} // +20%
	regs, _ := compare(base, next, hotRE(t), 0.10)
	if len(regs) != 1 || !strings.Contains(regs[0].reason, "ns/op") {
		t.Fatalf("want one ns/op regression, got %+v", regs)
	}
}

func TestCompareFailsOnZeroAllocContractBreak(t *testing.T) {
	// A zero-alloc baseline gaining even one allocation fails: the contract
	// is exact.
	base := &File{Schema: schemaID, Benchmarks: []Result{bench("BenchmarkChipCycle", 300, 0)}}
	next := &File{Schema: schemaID, Benchmarks: []Result{bench("BenchmarkChipCycle", 300, 1)}}
	regs, _ := compare(base, next, hotRE(t), 0.10)
	if len(regs) != 1 || !strings.Contains(regs[0].reason, "allocs/op") {
		t.Fatalf("want one allocs/op regression, got %+v", regs)
	}
}

func TestCompareAllocBudgetOnAllocatingBaseline(t *testing.T) {
	// Allocating benchmarks (parallel builders) jitter by a few allocs from
	// goroutine scheduling — small drift passes, growth past budget fails.
	base := &File{Schema: schemaID, Benchmarks: []Result{bench("BenchmarkCorpusBuild/workers=2", 1e9, 1450)}}
	next := &File{Schema: schemaID, Benchmarks: []Result{bench("BenchmarkCorpusBuild/workers=2", 1e9, 1456)}}
	regs, _ := compare(base, next, hotRE(t), 0.10)
	if len(regs) != 0 {
		t.Fatalf("+0.4%% alloc jitter should pass, got %+v", regs)
	}
	next.Benchmarks[0].AllocsPerOp = 1700 // +17%
	regs, _ = compare(base, next, hotRE(t), 0.10)
	if len(regs) != 1 || !strings.Contains(regs[0].reason, "allocs/op") {
		t.Fatalf("want one allocs/op regression at +17%%, got %+v", regs)
	}
}

func TestCompareFailsOnMissingHotBenchmark(t *testing.T) {
	base := &File{Schema: schemaID, Benchmarks: []Result{
		bench("BenchmarkStepCycle", 230, 0),
		bench("BenchmarkFig02MarginFrequency", 900, 3),
	}}
	next := &File{Schema: schemaID, Benchmarks: []Result{}}
	regs, _ := compare(base, next, hotRE(t), 0.10)
	if len(regs) != 1 || regs[0].name != "BenchmarkStepCycle" {
		t.Fatalf("want exactly the missing hot benchmark flagged, got %+v", regs)
	}
}

func TestLatestBaseline(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2.json", "BENCH_6.json", "BENCH_10.json", "BENCH_x.json", "notes.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := latestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_10.json" {
		t.Errorf("latestBaseline = %q, want BENCH_10.json (numeric, not lexical, ordering)", got)
	}

	empty := t.TempDir()
	got, err = latestBaseline(empty)
	if err != nil || got != "" {
		t.Errorf("latestBaseline(empty) = %q, %v; want \"\", nil", got, err)
	}
}

func TestRunCompareSkipsWithoutBaseline(t *testing.T) {
	dir := t.TempDir()
	newFile := filepath.Join(dir, "new.json")
	if err := os.WriteFile(newFile, []byte(`{"schema":"vsmooth-bench/v1","goos":"linux","goarch":"amd64","benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Nonexistent explicit baseline: skip with success.
	if code := runCompare([]string{filepath.Join(dir, "BENCH_99.json"), newFile}, "ChipCycle", 0.10); code != 0 {
		t.Errorf("missing baseline exit = %d, want 0 (graceful skip)", code)
	}
	// "auto" in a directory with no BENCH_*.json: also a skip.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if code := runCompare([]string{"auto", newFile}, "ChipCycle", 0.10); code != 0 {
		t.Errorf("auto with no baselines exit = %d, want 0 (graceful skip)", code)
	}
}

func TestRunCompareUsageErrors(t *testing.T) {
	if code := runCompare([]string{"only-one.json"}, "ChipCycle", 0.10); code != 2 {
		t.Errorf("one-arg exit = %d, want 2", code)
	}
	if code := runCompare([]string{"a.json", "b.json"}, "(", 0.10); code != 2 {
		t.Errorf("bad regexp exit = %d, want 2", code)
	}
}

func TestRoundTripConvertCompare(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "BENCH_1.json")
	if err := runConvertString(t, sampleBenchOutput, "BENCH_1", base); err != nil {
		t.Fatal(err)
	}
	loaded, err := load(base)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Label != "BENCH_1" || len(loaded.Benchmarks) != 3 {
		t.Fatalf("round-trip lost data: %+v", loaded)
	}
	// Comparing a file against itself is the identity gate: must pass.
	if code := runCompare([]string{base, base}, "ChipCycle|PDNStep|CorpusBuild", 0.10); code != 0 {
		t.Errorf("self-compare exit = %d, want 0", code)
	}
}

// runConvertString drives runConvert through a temp input file so the test
// does not have to fake stdin.
func runConvertString(t *testing.T, input, label, out string) error {
	t.Helper()
	in := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(in, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	return runConvert([]string{in}, label, out)
}

func TestParseRecordsProcsAndHost(t *testing.T) {
	// go test leaves the suffix off only at GOMAXPROCS 1 (-cpu 1).
	f, err := parse(strings.NewReader(sampleBenchOutput + `BenchmarkChipCycle   100   500.0 ns/op   0 B/op   0 allocs/op
BenchmarkStepCycle-2   100   70.0 ns/op   0 B/op   0 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != schemaID || f.NumCPU < 1 || !strings.HasPrefix(f.GoVersion, "go") {
		t.Errorf("header = schema %q nproc %d go %q", f.Schema, f.NumCPU, f.GoVersion)
	}
	want := []struct {
		name        string
		procs, runs int
		nsPerOp     float64
	}{
		{"BenchmarkChipCycle", 8, 3, 289.9},
		{"BenchmarkPDNStep", 8, 2, 34.62},
		{"BenchmarkCorpusBuild/workers=2", 8, 1, 35018003},
		{"BenchmarkChipCycle", 1, 1, 500}, // no suffix: -cpu 1, kept apart
		{"BenchmarkStepCycle", 2, 1, 70},
	}
	if len(f.Benchmarks) != len(want) {
		t.Fatalf("got %d benchmarks, want %d: %+v", len(f.Benchmarks), len(want), f.Benchmarks)
	}
	for i, w := range want {
		b := f.Benchmarks[i]
		if b.Name != w.name || b.Procs != w.procs || b.Runs != w.runs || b.NsPerOp != w.nsPerOp {
			t.Errorf("benchmark %d = %s procs %d runs %d %g ns/op, want %+v", i, b.Name, b.Procs, b.Runs, b.NsPerOp, w)
		}
	}
}

func TestLoadAndCompareV1Baseline(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "BENCH_1.json")
	if err := os.WriteFile(v1, []byte(`{"schema":"vsmooth-bench/v1","goos":"linux","goarch":"amd64",
"benchmarks":[{"name":"BenchmarkStepCycle","runs":5,"ns_per_op":250,"bytes_per_op":0,"allocs_per_op":0,"mem_reported":true}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := load(v1)
	if err != nil {
		t.Fatal(err)
	}
	if base.Benchmarks[0].Procs != 0 || base.NumCPU != 0 {
		t.Errorf("v1 file gained host fields: %+v", base)
	}
	// A v2 run matches the v1 baseline's unknown procs, and the report
	// names the pair.
	next := &File{Schema: schemaID, Benchmarks: []Result{
		{Name: "BenchmarkStepCycle", Procs: 2, Runs: 1, NsPerOp: 70, MemReported: true},
		{Name: "BenchmarkStepCycle", Procs: 4, Runs: 1, NsPerOp: 300, MemReported: true},
	}}
	if regs, report := compare(base, next, hotRE(t), 0.10); len(regs) != 0 || !strings.Contains(report, "250.0 ->         70.0") || !strings.Contains(report, "procs 0 -> 2") {
		t.Errorf("v1 vs v2 compare: %v\n%s", regs, report)
	}
	// With both procs known, the same setting is the counterpart.
	base.Benchmarks[0].Procs = 4
	if regs, _ := compare(base, next, hotRE(t), 0.10); len(regs) != 1 {
		t.Errorf("procs 4 baseline not compared with the procs 4 run (300 ns/op, +20%%): %v", regs)
	}
	if err := os.WriteFile(v1, []byte(`{"schema":"vsmooth-bench/v0","benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(v1); err == nil {
		t.Error("unknown schema loaded")
	}
}
