package pdn

import "math"

// nState is the size of the integrator state the cycle map acts on, in
// this order: iL0 iL1 iL2 iLb vC1 vP vCb vC3 iEMA regBias regErr.
const nState = 11

// cycleMap is one chip cycle of k substeps at dt, precomposed. The die
// current is constant within a cycle and every substep of stepN is affine
// in the state and in iLoad, except the anti-windup clamp on regBias; so
// while the clamp stays out of reach the whole cycle is
//
//	x' = A·x + b·iLoad + c
//
// — the same arithmetic as stepN, regrouped. It differs from stepN only in
// rounding (TestCycleMapTracksSubstepKernel states the bound). A built map
// never changes, so Network holds it by pointer and a Network copy (a
// snapshot) shares it.
type cycleMap struct {
	dt float64
	k  int

	// a[j] is column j of A: the effect of state j on every next state.
	// Column-major, so applying the map walks memory in order.
	a    [nState][nState]float64
	b, c [nState]float64

	// The clamp guard. errA[j], errB and errC are the largest |coefficient|
	// of the regulator error (VNom − v) over the k substeps, for state j,
	// for iLoad, and for the constant input. Their sum weighted by |x| and
	// |iLoad| bounds |err| on every substep of the cycle, so regBias moves
	// by at most kIk·that bound, where kIk = k·kI.
	errA       [nState]float64
	errB, errC float64
	kIk        float64
}

// buildCycleMap composes k substeps at dt (whose coefficients
// refreshCoefs has already cached) into a cycle map by driving stepN
// itself, so the substep arithmetic has one implementation. A scratch
// copy of the network with the clamp lifted and the ripple off is exactly
// affine per substep. Column j of A is the unit state e_j pushed through
// k substeps with no load and no supply (VNom = 0); b is a unit load
// pushed through the same; c is the supply alone (VNom kept, zero state,
// no load).
func (n *Network) buildCycleMap(dt float64, k int) *cycleMap {
	m := &cycleMap{dt: dt, k: k, kIk: float64(k) * n.kI}
	s := *n
	s.hasRipple = false
	s.regLimit = math.Inf(1)
	for col := 0; col < nState+2; col++ {
		var x [nState]float64
		iLoad := 0.0
		s.pVNom = 0
		switch {
		case col < nState:
			x[col] = 1
		case col == nState:
			iLoad = 1
		default:
			s.pVNom = n.pVNom
		}
		s.iL0, s.iL1, s.iL2, s.iLb = x[0], x[1], x[2], x[3]
		s.vC1, s.vP, s.vCb, s.vC3 = x[4], x[5], x[6], x[7]
		s.iEMA, s.regBias, s.regErr = x[8], x[9], x[10]
		bound := 0.0
		for i := 0; i < k; i++ {
			v := s.stepN(dt, iLoad, 1)
			bound = math.Max(bound, math.Abs(s.pVNom-v))
		}
		x = [nState]float64{s.iL0, s.iL1, s.iL2, s.iLb,
			s.vC1, s.vP, s.vCb, s.vC3, s.iEMA, s.regBias, s.regErr}
		switch {
		case col < nState:
			m.a[col], m.errA[col] = x, bound
		case col == nState:
			m.b, m.errB = x, bound
		default:
			m.c, m.errC = x, bound
		}
	}
	return m
}

// clampClear reports whether the regulator's anti-windup clamp stays out
// of reach for a cycle of m from n's state at load iLoad: |regBias| plus
// the most the integral term can add over k substeps is below the limit.
// NaN state fails the check.
func (m *cycleMap) clampClear(n *Network, iLoad float64) bool {
	e := &m.errA
	lo := m.errC + m.errB*math.Abs(iLoad) +
		e[0]*math.Abs(n.iL0) + e[1]*math.Abs(n.iL1) +
		e[2]*math.Abs(n.iL2) + e[3]*math.Abs(n.iLb) +
		e[4]*math.Abs(n.vC1)
	hi := e[5]*math.Abs(n.vP) + e[6]*math.Abs(n.vCb) +
		e[7]*math.Abs(n.vC3) + e[8]*math.Abs(n.iEMA) +
		e[9]*math.Abs(n.regBias) + e[10]*math.Abs(n.regErr)
	return math.Abs(n.regBias)+m.kIk*(lo+hi) < n.regLimit
}

// stepCycleMap advances the network by one cycle of m, or returns false
// without touching it when the anti-windup clamp could engage within the
// cycle, in which case the caller runs stepN instead. The update is fully
// unrolled and column-major, one independent accumulator per next state:
// the 121 products pipeline instead of serializing on a running sum, and
// the accumulators stay in registers.
func (n *Network) stepCycleMap(m *cycleMap, iLoad float64) (float64, bool) {
	if n.hasReg && !m.clampClear(n, iLoad) {
		return 0, false
	}

	a, b, c := &m.a, &m.b, &m.c
	y0 := c[0] + b[0]*iLoad
	y1 := c[1] + b[1]*iLoad
	y2 := c[2] + b[2]*iLoad
	y3 := c[3] + b[3]*iLoad
	y4 := c[4] + b[4]*iLoad
	y5 := c[5] + b[5]*iLoad
	y6 := c[6] + b[6]*iLoad
	y7 := c[7] + b[7]*iLoad
	y8 := c[8] + b[8]*iLoad
	y9 := c[9] + b[9]*iLoad
	y10 := c[10] + b[10]*iLoad

	x := n.iL0
	y0 += a[0][0] * x
	y1 += a[0][1] * x
	y2 += a[0][2] * x
	y3 += a[0][3] * x
	y4 += a[0][4] * x
	y5 += a[0][5] * x
	y6 += a[0][6] * x
	y7 += a[0][7] * x
	y8 += a[0][8] * x
	y9 += a[0][9] * x
	y10 += a[0][10] * x

	x = n.iL1
	y0 += a[1][0] * x
	y1 += a[1][1] * x
	y2 += a[1][2] * x
	y3 += a[1][3] * x
	y4 += a[1][4] * x
	y5 += a[1][5] * x
	y6 += a[1][6] * x
	y7 += a[1][7] * x
	y8 += a[1][8] * x
	y9 += a[1][9] * x
	y10 += a[1][10] * x

	x = n.iL2
	y0 += a[2][0] * x
	y1 += a[2][1] * x
	y2 += a[2][2] * x
	y3 += a[2][3] * x
	y4 += a[2][4] * x
	y5 += a[2][5] * x
	y6 += a[2][6] * x
	y7 += a[2][7] * x
	y8 += a[2][8] * x
	y9 += a[2][9] * x
	y10 += a[2][10] * x

	x = n.iLb
	y0 += a[3][0] * x
	y1 += a[3][1] * x
	y2 += a[3][2] * x
	y3 += a[3][3] * x
	y4 += a[3][4] * x
	y5 += a[3][5] * x
	y6 += a[3][6] * x
	y7 += a[3][7] * x
	y8 += a[3][8] * x
	y9 += a[3][9] * x
	y10 += a[3][10] * x

	x = n.vC1
	y0 += a[4][0] * x
	y1 += a[4][1] * x
	y2 += a[4][2] * x
	y3 += a[4][3] * x
	y4 += a[4][4] * x
	y5 += a[4][5] * x
	y6 += a[4][6] * x
	y7 += a[4][7] * x
	y8 += a[4][8] * x
	y9 += a[4][9] * x
	y10 += a[4][10] * x

	x = n.vP
	y0 += a[5][0] * x
	y1 += a[5][1] * x
	y2 += a[5][2] * x
	y3 += a[5][3] * x
	y4 += a[5][4] * x
	y5 += a[5][5] * x
	y6 += a[5][6] * x
	y7 += a[5][7] * x
	y8 += a[5][8] * x
	y9 += a[5][9] * x
	y10 += a[5][10] * x

	x = n.vCb
	y0 += a[6][0] * x
	y1 += a[6][1] * x
	y2 += a[6][2] * x
	y3 += a[6][3] * x
	y4 += a[6][4] * x
	y5 += a[6][5] * x
	y6 += a[6][6] * x
	y7 += a[6][7] * x
	y8 += a[6][8] * x
	y9 += a[6][9] * x
	y10 += a[6][10] * x

	x = n.vC3
	y0 += a[7][0] * x
	y1 += a[7][1] * x
	y2 += a[7][2] * x
	y3 += a[7][3] * x
	y4 += a[7][4] * x
	y5 += a[7][5] * x
	y6 += a[7][6] * x
	y7 += a[7][7] * x
	y8 += a[7][8] * x
	y9 += a[7][9] * x
	y10 += a[7][10] * x

	x = n.iEMA
	y0 += a[8][0] * x
	y1 += a[8][1] * x
	y2 += a[8][2] * x
	y3 += a[8][3] * x
	y4 += a[8][4] * x
	y5 += a[8][5] * x
	y6 += a[8][6] * x
	y7 += a[8][7] * x
	y8 += a[8][8] * x
	y9 += a[8][9] * x
	y10 += a[8][10] * x

	x = n.regBias
	y0 += a[9][0] * x
	y1 += a[9][1] * x
	y2 += a[9][2] * x
	y3 += a[9][3] * x
	y4 += a[9][4] * x
	y5 += a[9][5] * x
	y6 += a[9][6] * x
	y7 += a[9][7] * x
	y8 += a[9][8] * x
	y9 += a[9][9] * x
	y10 += a[9][10] * x

	x = n.regErr
	y0 += a[10][0] * x
	y1 += a[10][1] * x
	y2 += a[10][2] * x
	y3 += a[10][3] * x
	y4 += a[10][4] * x
	y5 += a[10][5] * x
	y6 += a[10][6] * x
	y7 += a[10][7] * x
	y8 += a[10][8] * x
	y9 += a[10][9] * x
	y10 += a[10][10] * x

	n.iL0, n.iL1, n.iL2, n.iLb = y0, y1, y2, y3
	n.vC1, n.vP, n.vCb, n.vC3 = y4, y5, y6, y7
	n.iEMA, n.regBias, n.regErr = y8, y9, y10

	// The clock advances by k additions of dt, exactly as stepN's does,
	// so the ripple phase keeps the same bits.
	t := n.t
	for s := m.k; s > 0; s-- {
		t += m.dt
	}
	n.t = t
	v := y7 + n.pESR3*(y2-iLoad)
	if n.hasRipple {
		v += n.ripple(t)
	}
	n.vDie = v
	n.lastILoad = iLoad
	return v, true
}
