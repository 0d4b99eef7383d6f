package resv

import (
	"testing"
	"time"

	"beqos/internal/obs"
)

// benchWindow is the frames one pipelined call carries in perfbench's
// link workload, and so the frames one server read decodes there.
const benchWindow = 32

// BenchmarkCodec is the frame codec's layer benchmark: DecodeFrames of one
// read's window (one op = one window), and AppendFrame of one reply (one
// op = one frame), both into reused buffers at 0 allocs/op.
func BenchmarkCodec(b *testing.B) {
	var wire []byte
	for i := 0; i < benchWindow; i++ {
		wire = AppendFrame(wire, Frame{Type: MsgRequest, FlowID: uint64(i + 1), Value: 1})
	}
	b.Run("decode/window32", func(b *testing.B) {
		frames := make([]Frame, 0, benchWindow)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			frames, _, err = DecodeFrames(frames[:0], wire)
			if err != nil || len(frames) != benchWindow {
				b.Fatalf("decoded %d frames: %v", len(frames), err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchWindow), "ns/frame")
	})
	b.Run("append", func(b *testing.B) {
		buf := make([]byte, 0, benchWindow*FrameSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(buf) == cap(buf) {
				buf = buf[:0]
			}
			buf = AppendFrame(buf, Frame{Type: MsgGrant, FlowID: uint64(i), Value: 1})
		}
	})
}

// BenchmarkFlushBatch is the per-read observability cost of the serving
// loop: flushBatch folding one window's tallies into the shared
// instruments, alone and with the pair of clock reads that time the read
// (time.Now before the window, time.Since after it). One op is one read
// of benchWindow frames; both rows run at 0 allocs/op.
func BenchmarkFlushBatch(b *testing.B) {
	m := newServerMetrics(obs.New())
	// A churn window: half reserves (most granted), half teardowns.
	window := batchStats{reserves: benchWindow / 2, grants: benchWindow/2 - 2, denials: 2, teardowns: benchWindow / 2}
	b.Run("flush", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bs := window
			m.flushBatch(&bs, benchWindow, 5*time.Microsecond)
		}
	})
	b.Run("clock+flush", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			bs := window
			m.flushBatch(&bs, benchWindow, time.Since(start))
		}
	})
}
