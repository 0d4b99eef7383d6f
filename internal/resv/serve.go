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
type Handler interface {
	// Serve answers one frame; a reply of Type 0 sends nothing. start is
	// when ServeConn began serving the frame's read.
	Serve(f Frame, start time.Time) Frame
	// ServeBatch answers one completed MsgReserveBatch body, appending its
	// reply frames to out.
	ServeBatch(ops []Frame, start time.Time, out []Frame) []Frame
	// BadBatch counts one error reply ServeConn sent itself: for a batch
	// header the collector refused, or for a batch whose body broke off.
	BadBatch()
	// Served is the per-read metrics hook: the number of frames one read
	// decoded (at least one) and the time spent serving them. It runs
	// before the flush-on-idle write that sends the read's replies.
	Served(frames int, elapsed time.Duration)
}

const (
	// readBufSize is the per-connection input buffer — up to ~200 frames
	// per read syscall. writeFlushThreshold flushes the reply buffer
	// mid-read, bounding per-connection memory under deep pipelines.
	readBufSize         = 4096
	writeFlushThreshold = 16 * 1024
)

// ServeConn runs one stream connection's read→dispatch→reply loop with
// batched frame I/O: every complete frame buffered by one read is decoded
// and handed to h, and the replies coalesce into a single write issued
// when the read is fully served (flush-on-idle) or the reply buffer fills.
// A MsgReserveBatch body may span reads; only a completed body reaches
// h.ServeBatch. The loop itself allocates nothing at steady state.
//
// ServeConn returns when the connection ends: nil for an orderly close by
// the peer (EOF at a frame boundary) or a local shutdown (net.ErrClosed),
// otherwise the read, decode or write error that ended it. It does not
// close nc.
func ServeConn(nc net.Conn, h Handler) error {
	br := bufio.NewReaderSize(nc, readBufSize)
	wbuf := make([]byte, 0, 1024)
	var frames, replies []Frame
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
		// One pair of clock reads per read: the handler's per-read hook
		// amortizes them over every frame the read coalesced.
		start := time.Now()
		var werr error
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
					wbuf = AppendFrame(wbuf, badRequest(f))
					wbuf = appendReply(wbuf, h.Serve(f, start))
				case done:
					replies = h.ServeBatch(bc.Ops(), start, replies[:0])
					for _, r := range replies {
						wbuf = appendReply(wbuf, r)
					}
				}
			case f.Type == MsgReserveBatch:
				if bc.Begin(f) != nil {
					h.BadBatch()
					wbuf = AppendFrame(wbuf, badRequest(f))
				}
			default:
				wbuf = appendReply(wbuf, h.Serve(f, start))
			}
			if len(wbuf) >= writeFlushThreshold {
				if werr = flush(nc, &wbuf); werr != nil {
					break
				}
			}
		}
		if len(frames) > 0 {
			h.Served(len(frames), time.Since(start))
		}
		if werr == nil {
			// Flush-on-idle: the read is fully served and the next read
			// may block, so everything coalesced so far goes out now.
			werr = flush(nc, &wbuf)
		}
		if werr != nil {
			return werr
		}
		if derr != nil {
			return derr
		}
	}
}

// badRequest is the error reply to a frame the serving loop refuses.
func badRequest(f Frame) Frame {
	return Frame{Type: MsgError, FlowID: f.FlowID, Value: float64(ErrCodeBadRequest)}
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
