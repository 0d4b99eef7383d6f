// Package resv implements a minimal reservation signaling protocol — an
// RSVP-inspired substrate for the integrated-services architecture the
// paper analyzes (§1). A client asks the network for a reservation; the
// server runs admission control with the model's utility-maximizing
// threshold kmax(C) and grants or denies. Denied clients may retry with
// backoff, mirroring the §5.2 extension.
//
// The protocol is deliberately small: fixed 20-byte frames over any
// net.Conn (TCP, Unix sockets, or net.Pipe in tests), answered in arrival
// order, and reservations tied to the connection's lifetime — a
// connection drop releases its flows, the moral equivalent of RSVP's soft
// state.
package resv

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// MsgType identifies a protocol frame.
type MsgType uint8

const (
	// MsgRequest asks for a reservation for FlowID; Value carries the
	// requested bandwidth.
	MsgRequest MsgType = iota + 1
	// MsgGrant accepts a request. In flow-count mode Value carries the
	// guaranteed worst-case share C/kmax — NOT the instantaneous share
	// C/min(k, kmax), which changes as flows arrive and depart and would
	// be stale as soon as the frame hit the wire. In bandwidth mode Value
	// is the granted rate (exactly the requested rate).
	MsgGrant
	// MsgDeny rejects a request; Value carries the current active count.
	MsgDeny
	// MsgTeardown releases FlowID's reservation.
	MsgTeardown
	// MsgTeardownOK confirms a teardown.
	MsgTeardownOK
	// MsgStats asks for link statistics.
	MsgStats
	// MsgStatsReply answers MsgStats; see the "MsgStatsReply field
	// packing" note below and use StatsReplyFrame/ParseStatsReply rather
	// than reaching into the fields.
	MsgStatsReply
	// MsgRefresh renews FlowID's soft-state timer (RSVP-style): on a
	// server with a reservation TTL, unrefreshed reservations expire.
	MsgRefresh
	// MsgRefreshOK confirms a refresh; Value carries the TTL in seconds
	// (0 when the server does not expire reservations).
	MsgRefreshOK
	// MsgError reports a protocol-level failure; Value is an ErrorCode.
	MsgError
	// MsgGossip carries one per-link occupancy snapshot of the cluster
	// plane (internal/cluster): FlowID packs the link's global index in its
	// top 16 bits and a monotone per-owner version in the low 48, Value is
	// the link's active reservation count. Gossip is one-way — a receiver
	// never replies — so it can piggyback on any stream the sender already
	// writes (Client.Post) without disturbing request/reply matching.
	MsgGossip
	// MsgReserveBatch opens a batched admission request: FlowID carries the
	// body length N (1..MaxBatch) and the header is followed by exactly N
	// ordinary body frames, each a MsgRequest or MsgTeardown, processed in
	// order. The server answers the whole batch with one
	// MsgReserveBatchReply. Batch framing is stream-only: a datagram-mode
	// server rejects the header with ErrCodeBadRequest, because the body
	// would span packets.
	MsgReserveBatch
	// MsgReserveBatchReply answers a MsgReserveBatch: FlowID is a
	// BatchVerdict bitmap (bit i set ⇔ body op i granted / torn down OK)
	// and Value carries the count-mode worst-case share C/kmax for granted
	// requests (0 in bandwidth mode, where the granted rate is the
	// requested rate).
	MsgReserveBatchReply
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgRequest:
		return "REQUEST"
	case MsgGrant:
		return "GRANT"
	case MsgDeny:
		return "DENY"
	case MsgTeardown:
		return "TEARDOWN"
	case MsgTeardownOK:
		return "TEARDOWN-OK"
	case MsgStats:
		return "STATS"
	case MsgStatsReply:
		return "STATS-REPLY"
	case MsgRefresh:
		return "REFRESH"
	case MsgRefreshOK:
		return "REFRESH-OK"
	case MsgError:
		return "ERROR"
	case MsgGossip:
		return "GOSSIP"
	case MsgReserveBatch:
		return "RESERVE-BATCH"
	case MsgReserveBatchReply:
		return "RESERVE-BATCH-REPLY"
	default:
		return fmt.Sprintf("MSG(%d)", uint8(t))
	}
}

// ErrorCode enumerates MsgError payloads.
type ErrorCode uint64

const (
	// ErrCodeUnknownFlow reports an operation on a flow the server does
	// not know.
	ErrCodeUnknownFlow ErrorCode = iota + 1
	// ErrCodeDuplicateFlow reports a reservation request for an
	// already-reserved flow ID.
	ErrCodeDuplicateFlow
	// ErrCodeBadRequest reports a malformed or out-of-range request.
	ErrCodeBadRequest
)

const (
	// frameMagic guards against cross-protocol traffic.
	frameMagic uint16 = 0xBE05
	// protocolVersion is bumped on incompatible changes.
	protocolVersion uint8 = 1
	// FrameSize is the fixed wire size of every message.
	FrameSize = 20
	// frameHeader is a well-formed frame's first three bytes — magic and
	// version — as the top of the big-endian 32-bit word that ends with
	// the type byte.
	frameHeader = uint32(frameMagic)<<16 | uint32(protocolVersion)<<8
)

// Frame is one protocol message.
type Frame struct {
	Type MsgType
	// Class is the admission class of a request (policy.ClassStandard /
	// ClassCritical / ClassSheddable), carried in the top two bits of the
	// type byte. The zero value is the standard class, so frames from
	// class-unaware clients are byte-identical to protocol version 1
	// before classes existed; replies always carry class 0.
	Class  uint8
	FlowID uint64
	// Value is type-dependent: bandwidth for requests/grants, a count for
	// denials and stats, an ErrorCode for errors.
	Value float64
}

const (
	// classShift positions the 2-bit class field in the type byte. MsgType
	// needs 4 bits (1..13), leaving the top bits free; bits 4–5 stay
	// reserved-zero for future types.
	classShift = 6
	// typeMask extracts the message type from the type byte.
	typeMask = (1 << classShift) - 1
	// ClassMask bounds the wire class space (policy.NumClasses values).
	ClassMask = 0xff >> classShift
)

// ErrBadFrame is wrapped by decoding errors.
var ErrBadFrame = fmt.Errorf("resv: bad frame")

// putFrame encodes f into a fixed-size buffer.
func putFrame(buf *[FrameSize]byte, f Frame) {
	binary.BigEndian.PutUint16(buf[0:2], frameMagic)
	buf[2] = protocolVersion
	buf[3] = uint8(f.Type) | (f.Class&ClassMask)<<classShift
	binary.BigEndian.PutUint64(buf[4:12], f.FlowID)
	binary.BigEndian.PutUint64(buf[12:20], math.Float64bits(f.Value))
}

// AppendFrame appends the wire encoding of f to dst, encoding it in place
// in dst's spare capacity.
func AppendFrame(dst []byte, f Frame) []byte {
	n := len(dst)
	dst = slices.Grow(dst, FrameSize)[:n+FrameSize]
	putFrame((*[FrameSize]byte)(dst[n:]), f)
	return dst
}

// DecodeFrame parses one frame from exactly FrameSize bytes.
func DecodeFrame(b []byte) (Frame, error) {
	if len(b) != FrameSize {
		return Frame{}, fmt.Errorf("%w: length %d, want %d", ErrBadFrame, len(b), FrameSize)
	}
	if got := binary.BigEndian.Uint16(b[0:2]); got != frameMagic {
		return Frame{}, fmt.Errorf("%w: magic %#04x", ErrBadFrame, got)
	}
	if b[2] != protocolVersion {
		return Frame{}, fmt.Errorf("%w: version %d, want %d", ErrBadFrame, b[2], protocolVersion)
	}
	t := MsgType(b[3] & typeMask)
	if t < MsgRequest || t > MsgReserveBatchReply {
		return Frame{}, fmt.Errorf("%w: unknown type %d", ErrBadFrame, b[3]&typeMask)
	}
	return Frame{
		Type:   t,
		Class:  b[3] >> classShift,
		FlowID: binary.BigEndian.Uint64(b[4:12]),
		Value:  math.Float64frombits(binary.BigEndian.Uint64(b[12:20])),
	}, nil
}

// DecodeFrames decodes every complete frame at the front of buf, appending
// them to dst (append-style, like AppendFrame: pass a scratch slice's [:0]
// to reuse its backing array). It returns the extended slice and the
// undecoded remainder — a partial trailing frame, possibly empty. On a
// malformed frame it returns the frames decoded before it, the remainder
// starting at the bad frame, and DecodeFrame's error for it.
//
// dst grows once for every frame buf holds, and each frame decodes into
// its element in place, with its magic, version and type checked from one
// 32-bit load.
func DecodeFrames(dst []Frame, buf []byte) ([]Frame, []byte, error) {
	n, m := len(dst), len(buf)/FrameSize
	dst = slices.Grow(dst, m)[:n+m]
	for i := range dst[n:] {
		b := (*[FrameSize]byte)(buf[i*FrameSize:])
		hdr := binary.BigEndian.Uint32(b[0:4])
		t := MsgType(hdr & typeMask)
		if hdr&^0xff != frameHeader || t-MsgRequest > MsgReserveBatchReply-MsgRequest {
			_, err := DecodeFrame(b[:])
			return dst[:n+i], buf[i*FrameSize:], err
		}
		dst[n+i] = Frame{
			Type:   t,
			Class:  uint8(hdr) >> classShift,
			FlowID: binary.BigEndian.Uint64(b[4:12]),
			Value:  math.Float64frombits(binary.BigEndian.Uint64(b[12:20])),
		}
	}
	return dst, buf[m*FrameSize:], nil
}

// DecodeDatagram parses the one frame a datagram-mode packet must carry:
// exactly FrameSize bytes, decoded by the same rules as DecodeFrame. The
// datagram transport never coalesces frames — UDP already preserves
// message boundaries, and one-frame datagrams make request-level
// retransmission trivial — so a short, long, or torn payload is rejected
// outright rather than buffered for a next read that will never come.
func DecodeDatagram(b []byte) (Frame, error) {
	if len(b) != FrameSize {
		return Frame{}, fmt.Errorf("%w: datagram length %d, want exactly %d", ErrBadFrame, len(b), FrameSize)
	}
	return DecodeFrame(b)
}

// MsgStatsReply field packing
//
// A stats reply repurposes the two payload fields of the fixed frame:
//
//	FlowID — the admission threshold kmax, as the uint64 it is
//	Value  — the active reservation count, as a float64
//
// FlowID is lossless. Value is not: float64 represents every integer only
// up to 2^53, and a hostile or corrupt peer can put a NaN, a negative, or
// a fractional value on the wire, any of which `int(f.Value)` turns into
// platform-defined garbage. StatsReplyFrame and ParseStatsReply are the
// only sanctioned way through this packing: the encoder refuses counts a
// float64 cannot hold exactly, and the parser rejects anything that is not
// a non-negative integral count in the exact range. Policy-extended stats
// must add frames (or a new message type), not squeeze more meaning into
// these two fields.

// maxExactCount is the largest count float64 round-trips exactly (2^53).
const maxExactCount = int64(1) << 53

// StatsReplyFrame packs a stats reply. It returns an error if the active
// count cannot survive the float64 leg of the packing.
func StatsReplyFrame(kmax int, active int64) (Frame, error) {
	if kmax < 0 {
		return Frame{}, fmt.Errorf("resv: stats reply kmax %d is negative", kmax)
	}
	if active < 0 || active > maxExactCount {
		return Frame{}, fmt.Errorf("resv: stats reply active count %d outside [0, 2^53]", active)
	}
	return Frame{Type: MsgStatsReply, FlowID: uint64(kmax), Value: float64(active)}, nil
}

// ParseStatsReply unpacks a stats reply, validating both packed fields.
func ParseStatsReply(f Frame) (kmax, active int64, err error) {
	if f.Type != MsgStatsReply {
		return 0, 0, fmt.Errorf("resv: %s frame is not a stats reply", f.Type)
	}
	if f.FlowID > math.MaxInt64 {
		return 0, 0, fmt.Errorf("resv: stats reply kmax %d overflows int64", f.FlowID)
	}
	v := f.Value
	if math.IsNaN(v) || v < 0 || v > float64(maxExactCount) || v != math.Trunc(v) {
		return 0, 0, fmt.Errorf("resv: stats reply active count %v is not an exact count", v)
	}
	return int64(f.FlowID), int64(v), nil
}

// statsFromReply is the client-side stats decode: every stats reply, over
// either transport, goes through it, so no path can regress to bare
// int(Value) truncation. It additionally guards the conversion to the
// platform int.
func statsFromReply(reply Frame) (kmax, active int, err error) {
	if reply.Type == MsgError {
		return 0, 0, fmt.Errorf("resv: stats failed: server error %v", ErrorCode(reply.FlowID))
	}
	k, a, err := ParseStatsReply(reply)
	if err != nil {
		return 0, 0, err
	}
	if int64(int(k)) != k || int64(int(a)) != a {
		return 0, 0, fmt.Errorf("resv: stats counts (%d, %d) overflow int on this platform", k, a)
	}
	return int(k), int(a), nil
}

// MaxBatch is the largest body a MsgReserveBatch may carry. 64 ops keep
// the reply verdict an exact one-frame bitmap (one bit per op in the
// reply's FlowID), and a full batch with its header is 1300 bytes, about
// one TCP segment, sent by the stream client in one write.
const MaxBatch = 64

// BatchVerdict is the per-op outcome bitmap a MsgReserveBatchReply
// carries in its FlowID field: bit i is set iff body op i succeeded
// (a MsgRequest was granted, a MsgTeardown found its flow).
type BatchVerdict uint64

// Granted reports the outcome of body op i.
func (v BatchVerdict) Granted(i int) bool { return v&(1<<uint(i)) != 0 }

// Count is the number of successful ops in the batch.
func (v BatchVerdict) Count() int { return bits.OnesCount64(uint64(v)) }

// BatchHeader builds the MsgReserveBatch header frame for an n-op body.
func BatchHeader(n int) Frame {
	return Frame{Type: MsgReserveBatch, FlowID: uint64(n)}
}

// BatchCollector accumulates the body of an in-flight MsgReserveBatch.
// Body frames may span read boundaries, so stream loops keep one collector
// per connection: Begin on the header, Add on each subsequent frame until
// it reports done, then Ops for the completed body. The zero value is an
// idle collector.
type BatchCollector struct {
	want int
	n    int
	ops  [MaxBatch]Frame
}

// Active reports whether a batch header has been seen and its body is
// still incomplete.
func (c *BatchCollector) Active() bool { return c.want > 0 }

// Begin starts collecting the body of header, which must be a
// MsgReserveBatch frame. It rejects a nested batch and a body length
// outside 1..MaxBatch.
func (c *BatchCollector) Begin(header Frame) error {
	if c.want > 0 {
		return fmt.Errorf("%w: batch header inside a batch body", ErrBadFrame)
	}
	n := header.FlowID
	if n < 1 || n > MaxBatch {
		return fmt.Errorf("%w: batch length %d outside [1, %d]", ErrBadFrame, n, MaxBatch)
	}
	c.want = int(n)
	c.n = 0
	return nil
}

// Add appends one body frame. Only MsgRequest and MsgTeardown may appear
// in a batch body; anything else aborts the batch (the collector resets,
// dropping the collected prefix) and returns the error. done reports that
// the body is complete and Ops may be read.
func (c *BatchCollector) Add(f Frame) (done bool, err error) {
	if c.want == 0 {
		return false, fmt.Errorf("%w: batch body frame outside a batch", ErrBadFrame)
	}
	if f.Type != MsgRequest && f.Type != MsgTeardown {
		c.Reset()
		return false, fmt.Errorf("%w: %s frame in a batch body", ErrBadFrame, f.Type)
	}
	c.ops[c.n] = f
	c.n++
	if c.n == c.want {
		c.want = 0
		return true, nil
	}
	return false, nil
}

// Ops returns the completed body after Add reported done. The slice
// aliases the collector's buffer and is valid until the next Begin.
func (c *BatchCollector) Ops() []Frame { return c.ops[:c.n] }

// Reset discards any partially collected body.
func (c *BatchCollector) Reset() { c.want, c.n = 0, 0 }
