package sim

import (
	"fmt"
	"math"
	"testing"

	"beqos/internal/rng"
)

// BenchmarkEngine is the event heap's layer benchmark: one tagged dispatch
// and one tagged schedule per op at a steady queue depth. 50 is the sim
// workload's kmax, where each admitted flow holds one queued departure;
// 4096 is a queue whose records no longer fit in L1. Delays are
// exponential, so every sift walks a random path.
func BenchmarkEngine(b *testing.B) {
	src := rng.New(1, 2)
	delays := make([]float64, 1024)
	for i := range delays {
		delays[i] = src.Exp(1)
	}
	for _, depth := range []int{50, 4096} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < depth; i++ {
				e.scheduleTagged(delays[i%len(delays)], evDepart, int32(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev, ok := e.next(math.Inf(1))
				if !ok {
					b.Fatal("queue drained")
				}
				e.scheduleTagged(delays[i%len(delays)], ev.kind, ev.ref)
			}
		})
	}
}
