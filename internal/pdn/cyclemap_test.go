package pdn

import (
	"math"
	"math/rand"
	"testing"
)

// cycleMapBound is the contract between the cycle map and the substep
// kernel it precomposes: on every cycle the two die voltages agree within
// this relative distance. The map is the same arithmetic regrouped, so
// the gap is rounding only (a few 1e-13 is typical).
const cycleMapBound = 1e-11

// splitParams divides the ladder across two rails the way uarch's split
// supply does: half of every capacitance, twice every resistance and
// inductance.
func splitParams(p Params) Params {
	p.C1, p.C2, p.C3, p.CPlane = p.C1/2, p.C2/2, p.C3/2, p.CPlane/2
	p.R0, p.R1, p.R2 = p.R0*2, p.R1*2, p.R2*2
	p.ESR1, p.ESR2, p.ESR3, p.ESL2 = p.ESR1*2, p.ESR2*2, p.ESR3*2, p.ESL2*2
	p.L0, p.L1, p.L2 = p.L0*2, p.L1*2, p.L2*2
	return p
}

type trackingCase struct {
	name string
	p    Params
}

// trackingCases are the ladders the cycle map is checked on: every decap
// variant the experiments run inside the stability bound, a split rail,
// and the regulator configurations that change the substep's shape.
func trackingCases() []trackingCase {
	var cases []trackingCase
	for _, v := range []ProcVariant{Proc100, Proc75, Proc50, Proc25, Proc3} {
		cases = append(cases, trackingCase{v.Name, Core2Duo().WithCapFraction(v.CapFraction)})
	}
	noFF := Core2Duo()
	noFF.RegFeedforwardTau = 0
	noReg := Core2Duo()
	noReg.RegIntegralHz, noReg.RegProportional = 0, 0
	return append(cases,
		trackingCase{"split-Proc100", splitParams(Core2Duo())},
		trackingCase{"split-Proc3", splitParams(Core2Duo().WithCapFraction(Proc3.CapFraction))},
		trackingCase{"no-feedforward", noFF},
		trackingCase{"no-integral", noReg},
	)
}

const (
	trackCycle    = 1 / 1.86e9 // the Core 2 Duo clock
	trackSubsteps = 7          // uarch.DefaultConfig().Substeps
)

// randomSteps returns a die current that holds a random level for a
// random number of cycles, with per-cycle jitter on top, the shape of the
// chip model's current as workloads stall and resume.
func randomSteps(seed int64) func() float64 {
	rng := rand.New(rand.NewSource(seed))
	level, left := 10.0, 0
	return func() float64 {
		if left == 0 {
			level, left = 2+43*rng.Float64(), 1+rng.Intn(400)
		}
		left--
		return level + rng.NormFloat64()
	}
}

// TestCycleMapTracksSubstepKernel drives StepCycle at the production
// substep count (inside the stability bound, so through the cycle map)
// against stepN on the same grid, on a twin network with the same random
// step load, and requires the die voltage to agree within cycleMapBound
// on every cycle and the clock to agree bit for bit. It also requires
// that the clamp guard never sent these cycles to the fallback, so the
// map itself is what is checked.
func TestCycleMapTracksSubstepKernel(t *testing.T) {
	const cycles = 150_000 // × 9 cases ≥ 1 M cycles
	for i, tc := range trackingCases() {
		p, seed := tc.p, int64(i+1)
		t.Run(tc.name, func(t *testing.T) {
			dt := trackCycle / trackSubsteps
			n := NewAtLoad(p, 10)
			if dt > n.MaxStableStep() {
				t.Fatalf("dt %g exceeds the stability bound %g: StepCycle would not use the cycle map", dt, n.MaxStableStep())
			}
			ref := NewAtLoad(p, 10)
			ref.refreshCoefs(dt)
			load := randomSteps(seed)
			worst, fallbacks := 0.0, 0
			for i := 0; i < cycles; i++ {
				iLoad := load()
				if n.cmap != nil && !n.cmap.clampClear(n, iLoad) {
					fallbacks++
				}
				got := n.StepCycle(trackCycle, iLoad, trackSubsteps)
				want := ref.stepN(dt, iLoad, trackSubsteps)
				rel := math.Abs(got-want) / math.Abs(want)
				if !(rel <= cycleMapBound) {
					t.Fatalf("cycle %d: map %.17g, substeps %.17g (relative %.3g > %g)", i, got, want, rel, cycleMapBound)
				}
				worst = math.Max(worst, rel)
				if n.Time() != ref.Time() {
					t.Fatalf("cycle %d: clock %v, substeps %v", i, n.Time(), ref.Time())
				}
			}
			if fallbacks > 0 {
				t.Errorf("%d of %d cycles fell back to the substep kernel", fallbacks, cycles)
			}
			t.Logf("worst relative gap %.3g over %d cycles", worst, cycles)
		})
	}

	// Within one cycle's reach of the anti-windup clamp the guard must
	// send the cycle to stepN, so StepCycle equals it bit for bit. A
	// heavy load makes the die sag, which drives regBias up into the
	// clamp.
	t.Run("forced-fallback", func(t *testing.T) {
		dt := trackCycle / trackSubsteps
		n := NewAtLoad(Core2Duo(), 40)
		n.regBias = n.regLimit * (1 - 1e-7)
		ref := *n
		ref.refreshCoefs(dt)
		clamped := false
		for i := 0; i < 200; i++ {
			iLoad := 45 + float64(i%5)
			got := n.StepCycle(trackCycle, iLoad, trackSubsteps)
			want := ref.stepN(dt, iLoad, trackSubsteps)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cycle %d: StepCycle %.17g, stepN %.17g: the clamp guard let the map run", i, got, want)
			}
			clamped = clamped || ref.regBias == ref.regLimit
		}
		if !clamped {
			t.Fatal("the clamp never engaged: the case does not exercise the guard")
		}
	})
}

// TestCycleMapRebuiltOnGridChange checks that StepCycle builds a new map
// when the (dt, substeps) grid changes and that a copy of the network (a
// snapshot) keeps using the map it was taken with.
func TestCycleMapRebuiltOnGridChange(t *testing.T) {
	n := NewAtLoad(Core2Duo(), 10)
	n.StepCycle(trackCycle, 12, trackSubsteps)
	first := n.cmap
	snap := *n
	n.StepCycle(trackCycle, 12, trackSubsteps)
	if n.cmap != first {
		t.Fatal("the map was rebuilt without a grid change")
	}
	// Same dt, one substep fewer: a new k.
	n.StepCycle(trackCycle*(trackSubsteps-1)/trackSubsteps, 12, trackSubsteps-1)
	if n.cmap == first || n.cmap.k != trackSubsteps-1 {
		t.Fatalf("a substep count change did not rebuild the map (k=%d)", n.cmap.k)
	}
	// Same k, half the cycle: a new dt.
	second := n.cmap
	n.StepCycle(trackCycle/2, 12, trackSubsteps-1)
	if n.cmap == second || n.cmap.dt == second.dt {
		t.Fatal("a dt change did not rebuild the map")
	}
	if snap.cmap != first || first.k != trackSubsteps {
		t.Fatal("a rebuild changed the map a snapshot holds")
	}
}
