package main

import (
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHarnessQuickRuns(t *testing.T) {
	dir := t.TempDir()
	h := &harness{dir: dir, quick: true}
	cases := map[string]func() error{
		"f0":   h.f0FixedLoad,
		"fig1": h.fig1,
		"t1":   h.t1Continuum,
		"t2":   h.t2WorstCase,
		"e2":   h.e2SamplingAsym,
		"e4":   h.e4RetryAsym,
		"x1":   h.x1Heterogeneous,
		"x2":   h.x2Nonstationary,
		"x3":   h.x3Footnote9,
		"x4":   h.x4Enforcement,
		"s1":   h.s1SimPoisson,
		"s2":   h.s2SimHeavyTail,
		"e1":   h.e1Sampling,
		"e3":   h.e3Retry,
		"t3":   h.t3SlowTail,
	}
	for id, run := range cases {
		if err := run(); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	checkCSVs(t, dir, map[string]uint64{
		"e1_sampling.csv":           0xba64e94b0539d90a,
		"e1_sampling_gamma.csv":     0xb32e12f35496d773,
		"e2_sampling_asym.csv":      0xcb181cb0b02f64d8,
		"e3_retry.csv":              0x9e4b66ecc3663242,
		"e3_retry_gamma.csv":        0xb7f0319c1c431c97,
		"e4_retry_asym.csv":         0xc82aebfff5ad2cd0,
		"f0_fixedload.csv":          0xd19546871d953ad4,
		"fig1_adaptive_utility.csv": 0x38e30d77cf50d148,
		"s1_sim_poisson.csv":        0xb8e7219acfcc8e88,
		"s2_sim_heavytail.csv":      0x17d6d8104653920d,
		"t1_continuum.csv":          0xd769a0461d8a2922,
		"t2_worstcase.csv":          0x319a82932590a942,
		"t3_slowtail.csv":           0x5314487e1676f4c0,
		"x1_heterogeneous.csv":      0xae10627ddc3f3788,
		"x2_nonstationary.csv":      0x8b524f8437b9453c,
		"x3_footnote9.csv":          0x59906cbfe7f5b51a,
		"x4_enforcement.csv":        0x29b67ad1199d8f01,
	})
	txts, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(txts) < len(cases) {
		t.Errorf("expected ≥ %d TXTs, got %d", len(cases), len(txts))
	}
}

// checkCSVs holds the CSVs written to dir, in name order, to their pinned
// FNV-1a hashes (an unpinned CSV reads as pinned to 0): any change to a
// published figure's numbers fails here. A change meant to move a figure
// re-pins its hash.
func checkCSVs(t *testing.T, dir string, want map[string]uint64) {
	t.Helper()
	csvs, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range csvs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(data)
		if name := filepath.Base(path); h.Sum64() != want[name] {
			t.Errorf("%s: hash %#016x, pinned %#016x", name, h.Sum64(), want[name])
		}
	}
	if len(csvs) != len(want) {
		t.Errorf("%d CSVs written, %d pinned", len(csvs), len(want))
	}
}

func TestHarnessFigureFamilyQuick(t *testing.T) {
	dir := t.TempDir()
	h := &harness{dir: dir, quick: true}
	for _, f := range []struct{ prefix, load string }{
		{"fig2", "poisson"}, {"fig3", "exponential"}, {"fig4", "algebraic"},
	} {
		if err := h.figureFamily(f.prefix, f.load); err != nil {
			t.Fatalf("%s: %v", f.prefix, err)
		}
	}
	for _, want := range []string{
		"fig3_exponential_rigid_utility.csv",
		"fig3_exponential_rigid_gap.txt",
		"fig3_exponential_adaptive_gamma.csv",
	} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing artifact %s: %v", want, err)
		}
	}
	// The utility CSV must have the header and monotone B column.
	data, err := os.ReadFile(filepath.Join(dir, "fig3_exponential_rigid_utility.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "C,B,R,delta") {
		t.Errorf("unexpected CSV header: %q", strings.SplitN(string(data), "\n", 2)[0])
	}
	checkCSVs(t, dir, map[string]uint64{
		"fig2_poisson_adaptive_gamma.csv":       0x215b263b00b5155b,
		"fig2_poisson_adaptive_gap.csv":         0xdd665f06f495b2d8,
		"fig2_poisson_adaptive_utility.csv":     0x05616ed7f63b67dc,
		"fig2_poisson_rigid_gamma.csv":          0x3c5ab35621d969b6,
		"fig2_poisson_rigid_gap.csv":            0x71b21f5fb4eef592,
		"fig2_poisson_rigid_utility.csv":        0xd6a931d331f7dde5,
		"fig3_exponential_adaptive_gamma.csv":   0x4d02901160b9b847,
		"fig3_exponential_adaptive_gap.csv":     0x9655892986efb6cc,
		"fig3_exponential_adaptive_utility.csv": 0xa57f09f5c301c902,
		"fig3_exponential_rigid_gamma.csv":      0x6cacc4f2e9fed723,
		"fig3_exponential_rigid_gap.csv":        0x1dfd761e2f74296a,
		"fig3_exponential_rigid_utility.csv":    0x5dde22da4a8f204f,
		"fig4_algebraic_adaptive_gamma.csv":     0x0b130d297abce9b4,
		"fig4_algebraic_adaptive_gap.csv":       0x1a0bfdd4c33dd76e,
		"fig4_algebraic_adaptive_utility.csv":   0x03eb3aaa6ac0d520,
		"fig4_algebraic_rigid_gamma.csv":        0x21c55e98f754465f,
		"fig4_algebraic_rigid_gap.csv":          0x657615a1e22c53d0,
		"fig4_algebraic_rigid_utility.csv":      0xb7f4812c6d5f4124,
	})
}

func TestHarnessUnknownLoad(t *testing.T) {
	h := &harness{dir: t.TempDir()}
	if _, err := h.load("nope"); err == nil {
		t.Error("unknown load should fail")
	}
	if _, err := h.util("nope"); err == nil {
		t.Error("unknown utility should fail")
	}
}
