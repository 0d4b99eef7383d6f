package workload

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// streamPins holds, per bundled spec and seed pair, the record count and
// the FNV-1a hash of every record's Flow.String() line. Together the
// specs cover every arrival kind (Poisson, MMPP, gamma, sessions), every
// event (step, flash, sine), a class mixture and every holding law.
var streamPins = map[string]map[[2]uint64]struct {
	n    int
	hash uint64
}{
	"baseline":   {{1, 2}: {8503, 0xd4d3dc706c931d6e}, {7, 11}: {8517, 0xf43ca895ca29ca55}},
	"bursty":     {{1, 2}: {4009, 0x615ca1b056962b23}, {7, 11}: {3899, 0xeffe3fd2c120160a}},
	"diurnal":    {{1, 2}: {5095, 0x15f7778a1d0f0562}, {7, 11}: {5128, 0x633d92f612310d16}},
	"flashcrowd": {{1, 2}: {5667, 0x5d96829a8d8f3a32}, {7, 11}: {5815, 0x94b2e148f192a943}},
	"heavytail":  {{1, 2}: {4272, 0xe87e39fd64a326e6}, {7, 11}: {4231, 0xec75636a1a011ac1}},
	"mixed":      {{1, 2}: {6318, 0x88ac3f286569d482}, {7, 11}: {6465, 0xb2fd6d50f13eb241}},
	"sessions":   {{1, 2}: {1053, 0xaa7af39dc178a4f5}, {7, 11}: {1419, 0xebecdf1124bf5644}},
}

// TestStreamPinned pins the arrival stream of every spec in specs/ bit for
// bit: a change to the generator, or to the order of its draws, changes
// every downstream simulator and load-harness figure.
func TestStreamPinned(t *testing.T) {
	paths, err := filepath.Glob("../../specs/*.spec")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no specs found: %v", err)
	}
	seeds := [][2]uint64{{1, 2}, {7, 11}}
	if len(paths) != len(streamPins) {
		t.Errorf("%d specs for %d pinned streams", len(paths), len(streamPins))
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".spec")
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Parse(string(text))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, seed := range seeds {
			h := fnv.New64a()
			n := 0
			st := s.Stream(seed[0], seed[1])
			for f, ok := st.Next(); ok; f, ok = st.Next() {
				fmt.Fprintln(h, f.String())
				n++
			}
			pin, ok := streamPins[name][seed]
			if !ok {
				t.Errorf("%s seeds %v: unpinned: {%d, %#x}", name, seed, n, h.Sum64())
				continue
			}
			if n != pin.n || h.Sum64() != pin.hash {
				t.Errorf("%s seeds %v: %d records hashing to %#x, want %d and %#x", name, seed, n, h.Sum64(), pin.n, pin.hash)
			}
		}
	}
}
