package continuum

import (
	"fmt"
	"math"
	"testing"

	"beqos/internal/core"
	"beqos/internal/dist"
	"beqos/internal/utility"
)

// pinnedSolve is one solved value of the pinned grid: its name, the IEEE
// bits of the value, and whether the solve failed (then the value is not
// compared, only that it failed).
type pinnedSolve struct {
	name string
	bits uint64
	errs bool
}

// solveGrid runs every bracketed solve of core and continuum on a small
// grid: the bandwidth gap Δ(C), the equalizing price ratio γ(p) and the
// retry fixed point L̂ of the discrete model and its sampling and retry
// extensions, of the quadrature model, and of the continuum closed forms.
// It keeps at least one case per solve site, the retry storms (C = 60 in
// the discrete model, C ≤ 100 in the continuum ones) and the algebraic
// retry at C = 100, whose fixed point recalibrates the load at a mean near
// 1.6e6; the algebraic retry γ and the algebraic adaptive sampling solves,
// which take seconds each, are left out.
func solveGrid(t *testing.T) []pinnedSolve {
	t.Helper()
	var out []pinnedSolve
	add := func(name string, v float64, err error) {
		out = append(out, pinnedSolve{name, math.Float64bits(v), err != nil})
	}
	pois, err := dist.NewPoisson(kbar)
	if err != nil {
		t.Fatal(err)
	}
	expo, err := dist.NewExponentialMean(kbar)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := dist.NewAlgebraicMean(3, kbar)
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]*core.Model{}
	var names []string
	for _, l := range []struct {
		name string
		d    dist.Discrete
	}{{"poisson", pois}, {"exponential", expo}, {"algebraic", alg}} {
		for _, u := range []struct {
			name string
			u    utility.Function
		}{{"rigid", rigidFn(t)}, {"adaptive", utility.NewAdaptive()}} {
			m, err := core.New(l.d, u.u)
			if err != nil {
				t.Fatal(err)
			}
			name := l.name + "/" + u.name
			models[name] = m
			names = append(names, name)
		}
	}
	for _, name := range names {
		m := models[name]
		for _, c := range []float64{20, 60, 100, 150, 300} {
			v, err := m.BandwidthGap(c)
			add(fmt.Sprintf("core/%s/gap/C=%g", name, c), v, err)
		}
		for _, p := range []float64{0.05, 0.2, 0.5} {
			v, err := m.GammaEqualize(p)
			add(fmt.Sprintf("core/%s/gamma/p=%g", name, p), v, err)
		}
	}
	for _, name := range []string{"poisson/rigid", "exponential/adaptive", "algebraic/rigid"} {
		for _, s := range []int{2, 4} {
			sp, err := core.NewSampling(models[name], s)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []float64{60, 120} {
				v, err := sp.BandwidthGap(c)
				add(fmt.Sprintf("core/%s/S=%d/gap/C=%g", name, s, c), v, err)
			}
			v, err := sp.GammaEqualize(0.2)
			add(fmt.Sprintf("core/%s/S=%d/gamma/p=0.2", name, s), v, err)
		}
	}
	for _, name := range []string{"exponential/rigid", "exponential/adaptive", "algebraic/rigid"} {
		for _, a := range []float64{0.05, 0.3} {
			rt, err := core.NewRetry(models[name], a)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []float64{60, 100, 150} {
				fp, err := rt.Equilibrium(c)
				add(fmt.Sprintf("core/%s/alpha=%g/lhat/C=%g", name, a, c), fp.EffectiveMean, err)
				v, err := rt.BandwidthGap(c)
				add(fmt.Sprintf("core/%s/alpha=%g/gap/C=%g", name, a, c), v, err)
			}
			if name != "algebraic/rigid" {
				v, err := rt.GammaEqualize(0.2)
				add(fmt.Sprintf("core/%s/alpha=%g/gamma/p=0.2", name, a), v, err)
			}
		}
	}

	er, _ := NewExpRigid(kbar)
	eramp, _ := NewExpRamp(kbar, 0.5)
	for _, c := range []float64{1.5, 5, 20, 100, 300} {
		v, err := er.BandwidthGap(c)
		add(fmt.Sprintf("exprigid/gap/C=%g", c), v, err)
		v, err = eramp.BandwidthGap(c)
		add(fmt.Sprintf("expramp/gap/C=%g", c), v, err)
		for _, s := range []int{2, 4} {
			es, _ := NewExpRigidSampling(kbar, s)
			v, err := es.BandwidthGap(c)
			add(fmt.Sprintf("exprigid/S=%d/gap/C=%g", s, c), v, err)
			as, _ := NewAlgRigidSampling(3, s)
			v, err = as.BandwidthGap(c)
			add(fmt.Sprintf("algrigid/S=%d/gap/C=%g", s, c), v, err)
		}
		for _, a := range []float64{0.05, 0.3} {
			eret, _ := NewExpRigidRetry(kbar, a)
			l, _, err := eret.Equilibrium(c)
			add(fmt.Sprintf("exprigid/alpha=%g/lhat/C=%g", a, c), l, err)
			aret, _ := NewAlgRigidRetry(3, kbar, a)
			l, _, err = aret.Equilibrium(c)
			add(fmt.Sprintf("algrigid/alpha=%g/lhat/C=%g", a, c), l, err)
			v, err := aret.BandwidthGap(c)
			add(fmt.Sprintf("algrigid/alpha=%g/gap/C=%g", a, c), v, err)
		}
	}
	ar, _ := NewAlgRigid(3)
	aramp, _ := NewAlgRamp(3, 0.5)
	for _, p := range []float64{0.001, 0.01, 0.1, 0.5} {
		v, err := er.GammaEqualize(p)
		add(fmt.Sprintf("exprigid/gamma/p=%g", p), v, err)
		v, err = ar.GammaEqualize(p)
		add(fmt.Sprintf("algrigid/gamma/p=%g", p), v, err)
		v, err = aramp.GammaEqualize(p)
		add(fmt.Sprintf("algramp/gamma/p=%g", p), v, err)
	}

	num, err := NewNumeric(expDensity(t), utility.NewAdaptive(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{20, 60, 100, 150, 300} {
		v, err := num.BandwidthGap(c)
		add(fmt.Sprintf("numeric/gap/C=%g", c), v, err)
	}
	v, err := num.GammaEqualize(0.5)
	add("numeric/gamma/p=0.5", v, err)
	return out
}

// TestSolvesPinned holds every solve of solveGrid to its pinned IEEE bits,
// and each failing solve to failing: a change to a solve site's bracket,
// tolerance or arithmetic shows here.
func TestSolvesPinned(t *testing.T) {
	got := solveGrid(t)
	if len(got) != len(solvePins) {
		t.Fatalf("grid has %d solves, %d pinned", len(got), len(solvePins))
	}
	for i, want := range solvePins {
		g := got[i]
		switch {
		case g.name != want.name:
			t.Fatalf("solve %d is %s, pinned %s", i, g.name, want.name)
		case g.errs != want.errs:
			t.Errorf("%s: fails = %v, pinned %v", g.name, g.errs, want.errs)
		case !g.errs && g.bits != want.bits:
			t.Errorf("%s = %v (%#x), pinned %v (%#x)", g.name,
				math.Float64frombits(g.bits), g.bits, math.Float64frombits(want.bits), want.bits)
		}
	}
}

var solvePins = []pinnedSolve{
	{"core/poisson/rigid/gap/C=20", 0x40523ffffff5603f, false},
	{"core/poisson/rigid/gap/C=60", 0x40458000005bd060, false},
	{"core/poisson/rigid/gap/C=100", 0x4032fffffe985980, false},
	{"core/poisson/rigid/gap/C=150", 0x402200000290f33f, false},
	{"core/poisson/rigid/gap/C=300", 0x0, false},
	{"core/poisson/rigid/gamma/p=0.05", 0x3ff1cc98ef471a77, false},
	{"core/poisson/rigid/gamma/p=0.2", 0x3ff2413ced6aaf7c, false},
	{"core/poisson/rigid/gamma/p=0.5", 0x3ff2d59aaf2654ee, false},
	{"core/poisson/adaptive/gap/C=20", 0x40237886182605ce, false},
	{"core/poisson/adaptive/gap/C=60", 0x400ecacf6f16e759, false},
	{"core/poisson/adaptive/gap/C=100", 0x3fc1df665de83153, false},
	{"core/poisson/adaptive/gap/C=150", 0x3e7671c80c2c8537, false},
	{"core/poisson/adaptive/gap/C=300", 0x0, false},
	{"core/poisson/adaptive/gamma/p=0.05", 0x3ff0000000000316, false},
	{"core/poisson/adaptive/gamma/p=0.2", 0x3ff0000000000102, false},
	{"core/poisson/adaptive/gamma/p=0.5", 0x3ff0000000000000, false},
	{"core/exponential/rigid/gap/C=20", 0x404c80000016f391, false},
	{"core/exponential/rigid/gap/C=60", 0x40573ffffff783c6, false},
	{"core/exponential/rigid/gap/C=100", 0x405cbffffff321b0, false},
	{"core/exponential/rigid/gap/C=150", 0x4060e000000fe5a8, false},
	{"core/exponential/rigid/gap/C=300", 0x4065e00000149716, false},
	{"core/exponential/rigid/gamma/p=0.05", 0x3ffa19d03c02bc9e, false},
	{"core/exponential/rigid/gamma/p=0.2", 0x4000e8f7068e8fb7, false},
	{"core/exponential/rigid/gamma/p=0.5", 0x3ff0000000000000, false},
	{"core/exponential/adaptive/gap/C=20", 0x40210648fa63d964, false},
	{"core/exponential/adaptive/gap/C=60", 0x4021a7e5823533fc, false},
	{"core/exponential/adaptive/gap/C=100", 0x401dd0f407165cfc, false},
	{"core/exponential/adaptive/gap/C=150", 0x401687d0fb7d78da, false},
	{"core/exponential/adaptive/gap/C=300", 0x4000dde725ea2229, false},
	{"core/exponential/adaptive/gamma/p=0.05", 0x3ff0049849af4225, false},
	{"core/exponential/adaptive/gamma/p=0.2", 0x3ff0865099f27b8c, false},
	{"core/exponential/adaptive/gamma/p=0.5", 0x3ff0000000000000, false},
	{"core/algebraic/rigid/gap/C=20", 0x40497fffffef38b8, false},
	{"core/algebraic/rigid/gap/C=60", 0x4053fffffff25fad, false},
	{"core/algebraic/rigid/gap/C=100", 0x405bbfffffbf0ce3, false},
	{"core/algebraic/rigid/gap/C=150", 0x40637fffffea9221, false},
	{"core/algebraic/rigid/gap/C=300", 0x4072d000000c9f21, false},
	{"core/algebraic/rigid/gamma/p=0.05", 0x40001d9811e70682, false},
	{"core/algebraic/rigid/gamma/p=0.2", 0x40015b9354fef6da, false},
	{"core/algebraic/rigid/gamma/p=0.5", 0x3ff0000000000000, false},
	{"core/algebraic/adaptive/gap/C=20", 0x401e18d0bebf4499, false},
	{"core/algebraic/adaptive/gap/C=60", 0x401d00af1e3dab21, false},
	{"core/algebraic/adaptive/gap/C=100", 0x401a6f5068107283, false},
	{"core/algebraic/adaptive/gap/C=150", 0x40197feb0af28214, false},
	{"core/algebraic/adaptive/gap/C=300", 0x401d81e4f5d92729, false},
	{"core/algebraic/adaptive/gamma/p=0.05", 0x3ff055b658235725, false},
	{"core/algebraic/adaptive/gamma/p=0.2", 0x3ff0b8d31c16915b, false},
	{"core/algebraic/adaptive/gamma/p=0.5", 0x3ff0000000000000, false},
	{"core/poisson/rigid/S=2/gap/C=60", 0x40480000004240b8, false},
	{"core/poisson/rigid/S=2/gap/C=120", 0x402e000001dbfa71, false},
	{"core/poisson/rigid/S=2/gamma/p=0.2", 0x3ff2a6c0eb55bb9d, false},
	{"core/poisson/rigid/S=4/gap/C=60", 0x404a7fffffa303a9, false},
	{"core/poisson/rigid/S=4/gap/C=120", 0x4031ffffffb95b84, false},
	{"core/poisson/rigid/S=4/gamma/p=0.2", 0x3ff31041b0b0dd63, false},
	{"core/exponential/adaptive/S=2/gap/C=60", 0x40476a638bd9aa5c, false},
	{"core/exponential/adaptive/S=2/gap/C=120", 0x4046d49708588dc0, false},
	{"core/exponential/adaptive/S=2/gamma/p=0.2", 0x3ffe6b675d0bb81d, false},
	{"core/exponential/adaptive/S=4/gap/C=60", 0x405772c6dc911519, false},
	{"core/exponential/adaptive/S=4/gap/C=120", 0x4059c02efe5dd558, false},
	{"core/exponential/adaptive/S=4/gamma/p=0.2", 0x3ff0000000000000, false},
	{"core/algebraic/rigid/S=2/gap/C=60", 0x4067a000000b3f2e, false},
	{"core/algebraic/rigid/S=2/gap/C=120", 0x40751fffffeba0a7, false},
	{"core/algebraic/rigid/S=2/gamma/p=0.2", 0x3ff0000000000000, false},
	{"core/algebraic/rigid/S=4/gap/C=60", 0x4079000000072c37, false},
	{"core/algebraic/rigid/S=4/gap/C=120", 0x4087900000065bc7, false},
	{"core/algebraic/rigid/S=4/gamma/p=0.2", 0x3ff0000000000000, false},
	{"core/exponential/rigid/alpha=0.05/lhat/C=60", 0x0, true},
	{"core/exponential/rigid/alpha=0.05/gap/C=60", 0x0, true},
	{"core/exponential/rigid/alpha=0.05/lhat/C=100", 0x414465663e808d53, false},
	{"core/exponential/rigid/alpha=0.05/gap/C=100", 0x0, false},
	{"core/exponential/rigid/alpha=0.05/lhat/C=150", 0x40658ce4614ec4eb, false},
	{"core/exponential/rigid/alpha=0.05/gap/C=150", 0x4076dffffff2625a, false},
	{"core/exponential/rigid/alpha=0.05/gamma/p=0.2", 0x40069b184da8ebab, false},
	{"core/exponential/rigid/alpha=0.3/lhat/C=60", 0x0, true},
	{"core/exponential/rigid/alpha=0.3/gap/C=60", 0x0, true},
	{"core/exponential/rigid/alpha=0.3/lhat/C=100", 0x414465663e808d53, false},
	{"core/exponential/rigid/alpha=0.3/gap/C=100", 0x0, false},
	{"core/exponential/rigid/alpha=0.3/lhat/C=150", 0x40658ce4614ec4eb, false},
	{"core/exponential/rigid/alpha=0.3/gap/C=150", 0x40617fffffdfffc0, false},
	{"core/exponential/rigid/alpha=0.3/gamma/p=0.2", 0x3ffef896fbd57877, false},
	{"core/exponential/adaptive/alpha=0.05/lhat/C=60", 0x0, true},
	{"core/exponential/adaptive/alpha=0.05/gap/C=60", 0x0, true},
	{"core/exponential/adaptive/alpha=0.05/lhat/C=100", 0x414465663e808d53, false},
	{"core/exponential/adaptive/alpha=0.05/gap/C=100", 0x0, false},
	{"core/exponential/adaptive/alpha=0.05/lhat/C=150", 0x40658ce4614ec4eb, false},
	{"core/exponential/adaptive/alpha=0.05/gap/C=150", 0x4038928956d9c19b, false},
	{"core/exponential/adaptive/alpha=0.05/gamma/p=0.2", 0x3ff2a5c20cccc3a3, false},
	{"core/exponential/adaptive/alpha=0.3/lhat/C=60", 0x0, true},
	{"core/exponential/adaptive/alpha=0.3/gap/C=60", 0x0, true},
	{"core/exponential/adaptive/alpha=0.3/lhat/C=100", 0x414465663e808d53, false},
	{"core/exponential/adaptive/alpha=0.3/gap/C=100", 0x0, false},
	{"core/exponential/adaptive/alpha=0.3/lhat/C=150", 0x40658ce4614ec4eb, false},
	{"core/exponential/adaptive/alpha=0.3/gap/C=150", 0x0, false},
	{"core/exponential/adaptive/alpha=0.3/gamma/p=0.2", 0x3ff0000000000000, false},
	{"core/algebraic/rigid/alpha=0.05/lhat/C=60", 0x0, true},
	{"core/algebraic/rigid/alpha=0.05/gap/C=60", 0x0, true},
	{"core/algebraic/rigid/alpha=0.05/lhat/C=100", 0x4138fc1598b92e47, false},
	{"core/algebraic/rigid/alpha=0.05/gap/C=100", 0x0, false},
	{"core/algebraic/rigid/alpha=0.05/lhat/C=150", 0x4066013bb14d62bf, false},
	{"core/algebraic/rigid/alpha=0.05/gap/C=150", 0x409f80000002c29c, false},
	{"core/algebraic/rigid/alpha=0.3/lhat/C=60", 0x0, true},
	{"core/algebraic/rigid/alpha=0.3/gap/C=60", 0x0, true},
	{"core/algebraic/rigid/alpha=0.3/lhat/C=100", 0x4138fc1598b92e47, false},
	{"core/algebraic/rigid/alpha=0.3/gap/C=100", 0x0, false},
	{"core/algebraic/rigid/alpha=0.3/lhat/C=150", 0x4066013bb14d62bf, false},
	{"core/algebraic/rigid/alpha=0.3/gap/C=150", 0x406a200000052772, false},
	{"exprigid/gap/C=1.5", 0x4030d5a92612ccd4, false},
	{"expramp/gap/C=1.5", 0x40270688f86537cf, false},
	{"exprigid/S=2/gap/C=1.5", 0x404d447ad13dcffb, false},
	{"algrigid/S=2/gap/C=1.5", 0x400f988e14092132, false},
	{"exprigid/S=4/gap/C=1.5", 0x405e73f73fe9d7a4, false},
	{"algrigid/S=4/gap/C=1.5", 0x4021bf504f67a878, false},
	{"exprigid/alpha=0.05/lhat/C=1.5", 0x0, true},
	{"algrigid/alpha=0.05/lhat/C=1.5", 0x0, true},
	{"algrigid/alpha=0.05/gap/C=1.5", 0x0, true},
	{"exprigid/alpha=0.3/lhat/C=1.5", 0x0, true},
	{"algrigid/alpha=0.3/lhat/C=1.5", 0x0, true},
	{"algrigid/alpha=0.3/gap/C=1.5", 0x0, true},
	{"exprigid/gap/C=5", 0x403e0a52c7436898, false},
	{"expramp/gap/C=5", 0x4033f43707bce61e, false},
	{"exprigid/S=2/gap/C=5", 0x4054cb16acbf18eb, false},
	{"algrigid/S=2/gap/C=5", 0x402cf9422c23c481, false},
	{"exprigid/S=4/gap/C=5", 0x40632d4f4b756f94, false},
	{"algrigid/S=4/gap/C=5", 0x4040bbc9520265b3, false},
	{"exprigid/alpha=0.05/lhat/C=5", 0x0, true},
	{"algrigid/alpha=0.05/lhat/C=5", 0x0, true},
	{"algrigid/alpha=0.05/gap/C=5", 0x0, true},
	{"exprigid/alpha=0.3/lhat/C=5", 0x0, true},
	{"algrigid/alpha=0.3/lhat/C=5", 0x0, true},
	{"algrigid/alpha=0.3/gap/C=5", 0x0, true},
	{"exprigid/gap/C=20", 0x404c9ccc3ddda92a, false},
	{"expramp/gap/C=20", 0x4041bc3311c371f7, false},
	{"exprigid/S=2/gap/C=20", 0x405f488da44d47de, false},
	{"algrigid/S=2/gap/C=20", 0x404dbf984cb56c6d, false},
	{"exprigid/S=4/gap/C=20", 0x40695d9102132fc7, false},
	{"algrigid/S=4/gap/C=20", 0x40614fbf2fe8e1aa, false},
	{"exprigid/alpha=0.05/lhat/C=20", 0x0, true},
	{"algrigid/alpha=0.05/lhat/C=20", 0x0, true},
	{"algrigid/alpha=0.05/gap/C=20", 0x0, true},
	{"exprigid/alpha=0.3/lhat/C=20", 0x0, true},
	{"algrigid/alpha=0.3/lhat/C=20", 0x0, true},
	{"algrigid/alpha=0.3/gap/C=20", 0x0, true},
	{"exprigid/gap/C=100", 0x405ca7a2f9008ed1, false},
	{"expramp/gap/C=100", 0x404d407e29c6753a, false},
	{"exprigid/S=2/gap/C=100", 0x4068857d7dd548fc, false},
	{"algrigid/S=2/gap/C=100", 0x4072b7fd6eff181c, false},
	{"exprigid/S=4/gap/C=100", 0x40716e06f2ff09ab, false},
	{"algrigid/S=4/gap/C=100", 0x4085d3fccabed9eb, false},
	{"exprigid/alpha=0.05/lhat/C=100", 0x0, true},
	{"algrigid/alpha=0.05/lhat/C=100", 0x0, true},
	{"algrigid/alpha=0.05/gap/C=100", 0x0, true},
	{"exprigid/alpha=0.3/lhat/C=100", 0x0, true},
	{"algrigid/alpha=0.3/lhat/C=100", 0x0, true},
	{"algrigid/alpha=0.3/gap/C=100", 0x0, true},
	{"exprigid/gap/C=300", 0x4065dce682ec86bc, false},
	{"expramp/gap/C=300", 0x405102f3eee7b924, false},
	{"exprigid/S=2/gap/C=300", 0x407002bdaf34ae1b, false},
	{"algrigid/S=2/gap/C=300", 0x408c1bff92aea4c4, false},
	{"exprigid/S=4/gap/C=300", 0x4075061e9f195093, false},
	{"algrigid/S=4/gap/C=300", 0x40a064ffbbad270f, false},
	{"exprigid/alpha=0.05/lhat/C=300", 0x405a9509889d3e03, false},
	{"algrigid/alpha=0.05/lhat/C=300", 0x405b868802c6f09e, false},
	{"algrigid/alpha=0.05/gap/C=300", 0x40c2bf7d5fc87556, false},
	{"exprigid/alpha=0.3/lhat/C=300", 0x405a9509889d3e03, false},
	{"algrigid/alpha=0.3/lhat/C=300", 0x405b868802c6f09e, false},
	{"algrigid/alpha=0.3/gap/C=300", 0x40951751d50b4708, false},
	{"exprigid/gamma/p=0.001", 0x3ff57f2c0d4e5531, false},
	{"algrigid/gamma/p=0.001", 0x4000000000000000, false},
	{"algramp/gamma/p=0.001", 0x3ff800000000001d, false},
	{"exprigid/gamma/p=0.01", 0x3ff75883846f7896, false},
	{"algrigid/gamma/p=0.01", 0x4000000000000000, false},
	{"algramp/gamma/p=0.01", 0x3ff8000000000009, false},
	{"exprigid/gamma/p=0.1", 0x3ffc8580bd67d902, false},
	{"algrigid/gamma/p=0.1", 0x4000000000000000, false},
	{"algramp/gamma/p=0.1", 0x3ff7ffffffffffff, false},
	{"exprigid/gamma/p=0.5", 0x3ff0000000000000, false},
	{"algrigid/gamma/p=0.5", 0x3ff0000000000000, false},
	{"algramp/gamma/p=0.5", 0x3ff8000000000001, false},
	{"numeric/gap/C=20", 0x4020f4d0e7d427ef, false},
	{"numeric/gap/C=60", 0x40218d653e407afc, false},
	{"numeric/gap/C=100", 0x401d97d15a8a6042, false},
	{"numeric/gap/C=150", 0x4016516b72c69b0a, false},
	{"numeric/gap/C=300", 0x40009c3ae973e162, false},
	{"numeric/gamma/p=0.5", 0x3ff0000000000000, false},
}
