package resv

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// Handler answers the frames ServeConn reads from one connection. Its
// methods run on the connection's serving goroutine, one read at a time.
// A handler may hold a cell lock (through a Locked cursor) from a read's
// first Serve or ServeBatch until its Served, which runs before the read's
// one write; nothing that can block may run while it does.
type Handler interface {
	// Serve answers one frame; a reply of Type 0 sends nothing. now is
	// when ServeConn began serving the frame's read, in nanoseconds on the
	// plane's clock (Lifecycle.Now): the instant the handler's soft state
	// and policy take for every frame of that read.
	Serve(f Frame, now int64) Frame
	// ServeBatch answers one completed MsgReserveBatch body with its one
	// reply frame. now is as for Serve.
	ServeBatch(ops []Frame, now int64) Frame
	// BadBatch counts one error reply ServeConn sent itself: for a batch
	// header the collector refused, or for a batch whose body broke off.
	BadBatch()
	// Served ends a read: it releases anything the handler held across
	// the read, and is the per-read metrics hook, given the number of
	// frames the read decoded (at least one) and the time spent serving
	// them. It runs before the write that sends the read's replies.
	Served(frames int, elapsed time.Duration)
}

// readBufSize is the per-connection input buffer: at most 204 frames per
// read syscall. Each frame gets at most two replies (a batch breaker's),
// so one read's replies are at most 8,160 bytes, and the reply buffer
// needs no flush before the read is served.
const readBufSize = 4096

// ServeConn runs one stream connection's read→dispatch→reply loop with
// batched frame I/O: every complete frame buffered by one read is decoded
// and handed to h, and the replies coalesce into a single write issued
// once the read is fully served and h.Served has run (flush-on-idle). A
// MsgReserveBatch body may span reads; only a completed body reaches
// h.ServeBatch. The loop itself allocates nothing at steady state.
//
// ServeConn returns when the connection ends: nil for an orderly close by
// the peer (EOF at a frame boundary) or a local shutdown (net.ErrClosed),
// otherwise the read, decode or write error that ended it. It neither
// registers nor closes nc; Serve does both.
func (l *Lifecycle) ServeConn(nc net.Conn, h Handler) error {
	br := bufio.NewReaderSize(nc, readBufSize)
	wbuf := make([]byte, 0, 1024)
	var frames []Frame
	var bc BatchCollector
	for {
		// Block until at least one full frame is buffered.
		if _, err := br.Peek(FrameSize); err != nil {
			if (errors.Is(err, io.EOF) && br.Buffered() == 0) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		data, _ := br.Peek(br.Buffered())
		var rest []byte
		var derr error
		frames, rest, derr = DecodeFrames(frames[:0], data)
		if _, err := br.Discard(len(data) - len(rest)); err != nil {
			return err
		}
		// One pair of monotonic clock reads per read: the first is the
		// handlers' instant, and the pair times the read for the per-read
		// hook, which amortizes it over every frame the read coalesced.
		start := l.Now()
		for _, f := range frames {
			switch {
			case bc.Active():
				done, berr := bc.Add(f)
				switch {
				case berr != nil:
					// The collected prefix is dropped un-admitted; the batch
					// fails as a whole and the offending frame is then served
					// on its own terms.
					h.BadBatch()
					wbuf = AppendFrame(wbuf, errorReply(f, ErrCodeBadRequest))
					wbuf = appendReply(wbuf, h.Serve(f, start))
				case done:
					wbuf = appendReply(wbuf, h.ServeBatch(bc.Ops(), start))
				}
			case f.Type == MsgReserveBatch:
				if bc.Begin(f) != nil {
					h.BadBatch()
					wbuf = AppendFrame(wbuf, errorReply(f, ErrCodeBadRequest))
				}
			default:
				wbuf = appendReply(wbuf, h.Serve(f, start))
			}
		}
		if len(frames) > 0 {
			h.Served(len(frames), time.Duration(l.Now()-start))
		}
		// Flush-on-idle: the read is fully served and the next read may
		// block, so everything coalesced so far goes out now.
		if err := flush(nc, &wbuf); err != nil {
			return err
		}
		if derr != nil {
			return derr
		}
	}
}

// errorReply is the error reply to f.
func errorReply(f Frame, code ErrorCode) Frame {
	return Frame{Type: MsgError, FlowID: f.FlowID, Value: float64(code)}
}

// appendReply encodes r unless it is the zero frame (no reply).
func appendReply(wbuf []byte, r Frame) []byte {
	if r.Type == 0 {
		return wbuf
	}
	return AppendFrame(wbuf, r)
}

// flush writes the coalesced replies in one syscall.
func flush(nc net.Conn, wbuf *[]byte) error {
	if len(*wbuf) == 0 {
		return nil
	}
	_, err := nc.Write(*wbuf)
	*wbuf = (*wbuf)[:0]
	if err != nil {
		return fmt.Errorf("write: %w", err)
	}
	return nil
}
