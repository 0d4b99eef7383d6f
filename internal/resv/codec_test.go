package resv

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"
)

// WriteFrame and ReadFrame are the one-frame reference codec: the tests
// speak the wire through them and hold the in-place codec to them.

// frameBufPool recycles frame scratch buffers for WriteFrame/ReadFrame. A
// local array would escape through the io.Writer/io.Reader interface call
// (the function is past the inlining budget, so no devirtualization saves
// it), putting one heap allocation on every frame — the pool makes the
// steady state allocation-free.
var frameBufPool = sync.Pool{New: func() interface{} { return new([FrameSize]byte) }}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, f Frame) error {
	buf := frameBufPool.Get().(*[FrameSize]byte)
	putFrame(buf, f)
	_, err := w.Write(buf[:])
	frameBufPool.Put(buf)
	return err
}

// ReadFrame reads exactly one frame from r.
func ReadFrame(r io.Reader) (Frame, error) {
	buf := frameBufPool.Get().(*[FrameSize]byte)
	defer frameBufPool.Put(buf)
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return Frame{}, err
	}
	return DecodeFrame(buf[:])
}

func TestFrameRoundTrip(t *testing.T) {
	prop := func(typ uint8, flowID uint64, value float64) bool {
		f := Frame{
			Type:   MsgType(typ%uint8(MsgError)) + MsgRequest,
			FlowID: flowID,
			Value:  value,
		}
		if f.Type > MsgError {
			f.Type = MsgError
		}
		got, err := DecodeFrame(AppendFrame(nil, f))
		if err != nil {
			return false
		}
		same := got.Type == f.Type && got.FlowID == f.FlowID
		if math.IsNaN(f.Value) {
			return same && math.IsNaN(got.Value)
		}
		return same && got.Value == f.Value
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeFrame(make([]byte, 7)); !errors.Is(err, ErrBadFrame) {
		t.Error("short frame should fail")
	}
	good := AppendFrame(nil, Frame{Type: MsgGrant, FlowID: 1, Value: 2})
	bad := append([]byte(nil), good...)
	bad[0] = 0xFF // magic
	if _, err := DecodeFrame(bad); !errors.Is(err, ErrBadFrame) {
		t.Error("bad magic should fail")
	}
	bad = append([]byte(nil), good...)
	bad[2] = 99 // version
	if _, err := DecodeFrame(bad); !errors.Is(err, ErrBadFrame) {
		t.Error("bad version should fail")
	}
	bad = append([]byte(nil), good...)
	bad[3] = 0 // type below range
	if _, err := DecodeFrame(bad); !errors.Is(err, ErrBadFrame) {
		t.Error("type 0 should fail")
	}
	bad[3] = uint8(MsgReserveBatchReply) + 1
	if _, err := DecodeFrame(bad); !errors.Is(err, ErrBadFrame) {
		t.Error("type beyond range should fail")
	}
}

func TestGossipFrameRoundTrip(t *testing.T) {
	// A gossip frame packs linkIdx<<48 | version in FlowID and the active
	// count in Value; it must survive the wire like any other frame.
	want := Frame{Type: MsgGossip, FlowID: 7<<48 | 123456, Value: 42}
	got, err := DecodeFrame(AppendFrame(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestWriteReadFrame(t *testing.T) {
	var buf bytes.Buffer
	want := Frame{Type: MsgDeny, FlowID: 42, Value: 7.5}
	if err := WriteFrame(&buf, want); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != FrameSize {
		t.Errorf("wire size %d, want %d", buf.Len(), FrameSize)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for typ := MsgRequest; typ <= MsgGossip; typ++ {
		if typ.String() == "" {
			t.Errorf("empty name for %d", typ)
		}
	}
	if MsgType(200).String() == "" {
		t.Error("unknown type should still render")
	}
}

func TestDecodeFrames(t *testing.T) {
	want := []Frame{
		{Type: MsgRequest, FlowID: 1, Value: 1},
		{Type: MsgGrant, FlowID: 2, Value: 2.5},
		{Type: MsgTeardown, FlowID: 3},
	}
	var wire []byte
	for _, f := range want {
		wire = AppendFrame(wire, f)
	}
	got, rest, err := DecodeFrames(nil, wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("rest = % x, want empty", rest)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("frame %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestDecodeFramesTrailingPartial(t *testing.T) {
	wire := AppendFrame(nil, Frame{Type: MsgRequest, FlowID: 1, Value: 1})
	wire = AppendFrame(wire, Frame{Type: MsgRequest, FlowID: 2, Value: 1})
	for cut := 0; cut < FrameSize; cut++ {
		buf := wire[:FrameSize+cut]
		got, rest, err := DecodeFrames(nil, buf)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) != 1 {
			t.Fatalf("cut %d: decoded %d frames, want 1", cut, len(got))
		}
		if len(rest) != cut {
			t.Errorf("cut %d: rest length %d, want %d", cut, len(rest), cut)
		}
	}
}

func TestDecodeFramesBadFrameMidStream(t *testing.T) {
	wire := AppendFrame(nil, Frame{Type: MsgRequest, FlowID: 1, Value: 1})
	bad := len(wire)
	wire = AppendFrame(wire, Frame{Type: MsgRequest, FlowID: 2, Value: 1})
	wire[bad] = 0xFF // corrupt frame 1's magic
	got, rest, err := DecodeFrames(nil, wire)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
	if len(got) != 1 || got[0].FlowID != 1 {
		t.Errorf("frames before the bad one: %+v, want just flow 1", got)
	}
	if len(rest) != FrameSize {
		t.Errorf("rest length %d, want the bad frame (%d bytes)", len(rest), FrameSize)
	}
}

// TestCodecZeroAllocs pins the codec hot paths at zero allocations:
// AppendFrame into a reusable buffer, WriteFrame to a concrete writer,
// DecodeFrame, and DecodeFrames into a reusable slice. WriteFrame used to
// heap-allocate its scratch slice on every call.
func TestCodecZeroAllocs(t *testing.T) {
	f := Frame{Type: MsgRequest, FlowID: 42, Value: 3.25}
	buf := make([]byte, 0, 4*FrameSize)
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendFrame(buf[:0], f)
	}); n != 0 {
		t.Errorf("AppendFrame: %v allocs/op, want 0", n)
	}
	wire := AppendFrame(nil, f)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeFrame(wire); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeFrame: %v allocs/op, want 0", n)
	}
	var batch []byte
	for i := 0; i < 8; i++ {
		batch = AppendFrame(batch, f)
	}
	frames := make([]Frame, 0, 8)
	if n := testing.AllocsPerRun(100, func() {
		var err error
		frames, _, err = DecodeFrames(frames[:0], batch)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeFrames: %v allocs/op, want 0", n)
	}
	w := &countingWriter{}
	if n := testing.AllocsPerRun(100, func() {
		if err := WriteFrame(w, f); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteFrame: %v allocs/op, want 0", n)
	}
	if w.n == 0 {
		t.Fatal("countingWriter never written to")
	}
}

// countingWriter is a concrete io.Writer that keeps WriteFrame's stack
// buffer from escaping (a bytes.Buffer would devirtualize too, but this
// makes the intent explicit).
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// decodeFramesRef is DecodeFrames as one checked DecodeFrame per frame:
// the reference the in-place decoder must match.
func decodeFramesRef(dst []Frame, buf []byte) ([]Frame, []byte, error) {
	for len(buf) >= FrameSize {
		f, err := DecodeFrame(buf[:FrameSize])
		if err != nil {
			return dst, buf, err
		}
		dst = append(dst, f)
		buf = buf[FrameSize:]
	}
	return dst, buf, nil
}

// randFrame draws a frame of any valid type and class, with any FlowID and
// any Value bits, NaNs included.
func randFrame(rng *rand.Rand) Frame {
	return Frame{
		Type:   MsgRequest + MsgType(rng.IntN(int(MsgReserveBatchReply))),
		Class:  uint8(rng.IntN(ClassMask + 1)),
		FlowID: rng.Uint64(),
		Value:  math.Float64frombits(rng.Uint64()),
	}
}

// TestDecodeFramesMatchesReference decodes seeded random windows — some
// with one frame's magic, version or type byte corrupted, most with a
// partial trailing frame — through DecodeFrames and through the reference
// loop, into destinations of varied length and spare capacity. Frames,
// remainder and error text must be equal, and the destination's prefix
// untouched.
func TestDecodeFramesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 5000; trial++ {
		var buf []byte
		for n := rng.IntN(40); n > 0; n-- {
			buf = AppendFrame(buf, randFrame(rng))
		}
		if nf := len(buf) / FrameSize; nf > 0 && rng.IntN(2) == 0 {
			at := rng.IntN(nf) * FrameSize
			switch rng.IntN(4) {
			case 0, 1: // magic
				buf[at+rng.IntN(2)] ^= byte(1 + rng.IntN(255))
			case 2: // version
				buf[at+2] ^= byte(1 + rng.IntN(255))
			case 3: // a type outside [MsgRequest, MsgReserveBatchReply], any class
				bad := []byte{0, byte(MsgReserveBatchReply) + 1 + byte(rng.IntN(typeMask-int(MsgReserveBatchReply)))}
				buf[at+3] = bad[rng.IntN(2)] | byte(rng.IntN(ClassMask+1))<<classShift
			}
		}
		buf = append(buf, make([]byte, rng.IntN(FrameSize))...)
		prefix := make([]Frame, rng.IntN(3))
		for i := range prefix {
			prefix[i] = randFrame(rng)
		}
		want, wantRest, wantErr := decodeFramesRef(append([]Frame(nil), prefix...), buf)
		dst := make([]Frame, len(prefix), len(prefix)+rng.IntN(50))
		copy(dst, prefix)
		got, gotRest, gotErr := DecodeFrames(dst, buf)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d frames, reference %d", trial, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Type != w.Type || g.Class != w.Class || g.FlowID != w.FlowID ||
				math.Float64bits(g.Value) != math.Float64bits(w.Value) {
				t.Fatalf("trial %d: frame %d = %+v, reference %+v", trial, i, g, w)
			}
		}
		if len(gotRest) != len(wantRest) || (len(gotRest) > 0 && &gotRest[0] != &wantRest[0]) {
			t.Fatalf("trial %d: remainder of %d bytes, reference %d", trial, len(gotRest), len(wantRest))
		}
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("trial %d: error %v, reference %v", trial, gotErr, wantErr)
		}
		if gotErr != nil && !errors.Is(gotErr, ErrBadFrame) {
			t.Fatalf("trial %d: error %v does not wrap ErrBadFrame", trial, gotErr)
		}
	}
}

// TestAppendFrameMatchesPutFrame appends a seeded frame to a destination
// at every spare capacity from 0 to 2·FrameSize: the result is the
// destination's bytes followed by putFrame's, encoded in place whenever
// the frame fits.
func TestAppendFrameMatchesPutFrame(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for spare := 0; spare <= 2*FrameSize; spare++ {
		for trial := 0; trial < 20; trial++ {
			f := randFrame(rng)
			var enc [FrameSize]byte
			putFrame(&enc, f)
			n := rng.IntN(3 * FrameSize)
			dst := make([]byte, n, n+spare)
			for i := range dst {
				dst[i] = byte(rng.Uint32())
			}
			head := append([]byte(nil), dst...)
			got := AppendFrame(dst, f)
			if !bytes.Equal(got[:len(head)], head) || !bytes.Equal(got[len(head):], enc[:]) {
				t.Fatalf("spare %d: AppendFrame = %x, want %x then %x", spare, got, head, enc)
			}
			if inPlace := cap(dst) > 0 && &got[:1][0] == &dst[:1][0]; inPlace != (spare >= FrameSize) {
				t.Fatalf("spare %d: encoded in place = %v", spare, inPlace)
			}
		}
	}
}
