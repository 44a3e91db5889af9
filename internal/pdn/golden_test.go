package pdn

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden kernel traces from the current integrator")

// goldenVariants are the decap processors the fused-kernel bit-identity
// contract covers: the unmodified chip and the two future-node stand-ins
// every execution-driven experiment sweeps.
var goldenVariants = []ProcVariant{Proc100, Proc25, Proc3}

// goldenTrace drives one network through the substep kernel stepN —
// StepCycle at 6 substeps, raw Step at that substep dt, single-substep
// cycles, and oversized Step calls — and records every returned die
// voltage as raw float64 bits. Every one of these calls subdivides: a
// sixth of the 1.86 GHz cycle is above the stability bound, so the
// 6-substep StepCycle rows run stepN on a 12-step grid, not the
// production 7-substep cycle map (TestCycleMapTracksSubstepKernel covers
// that path against stepN). Any change to stepN's arithmetic, evaluation
// order, or state layout shows up as a bit flip against the committed
// trace.
func goldenTrace(v ProcVariant) []uint64 {
	p := Core2Duo().WithCapFraction(v.CapFraction)
	n := NewAtLoad(p, 8)
	const cycle = 1 / 1.86e9

	load := func(i int) float64 {
		return 8 + 14*math.Sin(float64(i)*0.37) + float64(i%7)
	}

	var bits []uint64
	rec := func(val float64) { bits = append(bits, math.Float64bits(val)) }

	// One chip cycle at 6 substeps (subdivided to 12 by the stability
	// bound; the historical default substep count).
	for i := 0; i < 240; i++ {
		rec(n.StepCycle(cycle, load(i), 6))
	}
	// Raw substep-granularity Step calls (the impedance/transient path).
	for i := 0; i < 120; i++ {
		rec(n.Step(cycle/6, load(i)))
	}
	// dt above the stability bound: Step must subdivide transparently.
	for i := 0; i < 48; i++ {
		rec(n.StepCycle(cycle, load(i), 1))
	}
	for i := 0; i < 24; i++ {
		rec(n.Step(3*cycle, load(i)))
	}
	// Back to 6-substep cycles after the dt changes above, so coefficient
	// re-caching after a dt switch is covered too.
	for i := 0; i < 60; i++ {
		rec(n.StepCycle(cycle, load(i), 6))
	}
	rec(n.V())
	rec(n.Time())
	return bits
}

func goldenPath(v ProcVariant) string {
	return filepath.Join("testdata", "kernel_golden_"+v.Name+".txt")
}

// TestFusedKernelGolden pins the substep kernel stepN bit-for-bit. The
// committed traces were generated from the pre-fusion three-stage
// integrator; the fused kernel must reproduce them exactly (same IEEE-754
// bits, not merely within tolerance) across all three decap variants. It
// never reaches StepCycle's production branch (7 substeps, inside the
// stability bound, through the cycle map): see goldenTrace.
// Regenerate with `go test ./internal/pdn -run TestFusedKernelGolden -update`
// only when an intentional physics change is made, and say so in DESIGN §9.
func TestFusedKernelGolden(t *testing.T) {
	for _, v := range goldenVariants {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			got := goldenTrace(v)
			path := goldenPath(v)
			if *updateGolden {
				var sb strings.Builder
				for _, b := range got {
					fmt.Fprintf(&sb, "%016x\n", b)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %d samples to %s", len(got), path)
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden trace (run with -update to generate): %v", err)
			}
			lines := strings.Fields(string(raw))
			if len(lines) != len(got) {
				t.Fatalf("golden %s has %d samples, trace produced %d", path, len(lines), len(got))
			}
			for i, line := range lines {
				want, err := strconv.ParseUint(line, 16, 64)
				if err != nil {
					t.Fatalf("golden %s line %d: %v", path, i+1, err)
				}
				if got[i] != want {
					t.Fatalf("sample %d diverged: got %016x (%v) want %016x (%v)",
						i, got[i], math.Float64frombits(got[i]), want, math.Float64frombits(want))
				}
			}
		})
	}
}

// TestStepZeroAllocs pins the zero-allocation contract of the hot kernel:
// neither a raw substep, nor a subdivided cycle, nor a production
// 7-substep cycle through the cycle map may allocate once the map is built.
func TestStepZeroAllocs(t *testing.T) {
	n := NewAtLoad(Core2Duo(), 20)
	const cycle = 1 / 1.86e9
	if avg := testing.AllocsPerRun(1000, func() {
		n.Step(cycle/6, 24)
	}); avg != 0 {
		t.Fatalf("Network.Step allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		n.StepCycle(cycle, 24, 6)
	}); avg != 0 {
		t.Fatalf("Network.StepCycle allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		n.StepCycle(cycle, 24, 7)
	}); avg != 0 {
		t.Fatalf("Network.StepCycle through the cycle map allocates %.1f allocs/op, want 0", avg)
	}
}
