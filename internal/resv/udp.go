package resv

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"time"
)

// The datagram transport (DESIGN.md §11): reserve/refresh/teardown over
// UDP, one frame per datagram, sharing the stream transport's wire codec
// and admission semantics. There are no connections to scope soft state
// to, so reliability inverts: the *client* retransmits requests on a reply
// timeout, and the server makes every request safe to retransmit —
// reserve dedups against the live entry (re-sending the grant, never
// admitting twice), refresh is naturally idempotent, and a lost teardown
// is healed by the soft-state TTL. Run datagram servers with a TTL;
// without one, flows whose teardowns are lost leak until the peer
// re-reserves them.
//
// Each distinct source address gets a virtual connection (a *conn with no
// net.Conn), so ownership checks, duplicate detection, and the flow
// accounting are exactly the stream transport's. Peers are reaped as soon
// as they hold no flows and no dispatch is in flight: after the dispatch
// that tore their last flow down, or after the expiry step that expired
// it.

// maxUDPReaders bounds the fixed reader pool ServePacket spawns.
const maxUDPReaders = 8

// udpReaderCount sizes the reader pool: one reader per schedulable CPU,
// at least 2 (so a reader mid-dispatch never idles the socket), at most
// maxUDPReaders (more readers than cores just shuffle the same work).
func udpReaderCount() int {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	if n > maxUDPReaders {
		n = maxUDPReaders
	}
	return n
}

// ServePacket serves the resv protocol in datagram mode on pc until pc is
// closed or fails. It always returns a non-nil error (net.ErrClosed after
// a clean shutdown). A small fixed pool of reader goroutines feeds the
// sharded admission plane; replies go back to each datagram's source
// address. ServePacket may run concurrently with Serve on the same
// Server — stream and datagram clients share one admission state.
func (s *Server) ServePacket(pc net.PacketConn) error {
	readers := udpReaderCount()
	errc := make(chan error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errc <- s.readPackets(pc)
		}()
	}
	err := <-errc
	// The first failure wins; closing pc unblocks the remaining readers.
	_ = pc.Close()
	wg.Wait()
	return err
}

// readPackets is one reader-pool goroutine: read a datagram, decode the
// one frame it must carry, dispatch it on the source address's virtual
// connection, and send the reply. Malformed datagrams are counted and
// dropped without a reply — a reply to garbage would let spoofed junk
// turn the server into a reflector.
func (s *Server) readPackets(pc net.PacketConn) error {
	// One spare byte detects oversized datagrams without a second read.
	var buf [FrameSize + 1]byte
	var wbuf [FrameSize]byte
	var bs batchStats
	for {
		n, addr, err := pc.ReadFrom(buf[:])
		if err != nil {
			return err
		}
		s.metrics.Datagrams.Inc()
		f, derr := DecodeDatagram(buf[:n])
		if derr != nil {
			s.metrics.BadDatagrams.Inc()
			if s.Logf != nil {
				s.logf("resv: dropped datagram from %v: %v", addr, derr)
			}
			continue
		}
		t0 := time.Now()
		c := s.acquireUDPPeer(addr)
		reply := s.dispatch(c, f, &bs)
		s.releaseUDPPeer(c)
		s.metrics.flushBatch(&bs, 1, time.Since(t0))
		putFrame(&wbuf, reply)
		if _, err := pc.WriteTo(wbuf[:], addr); err != nil {
			// A reply that cannot be sent is indistinguishable from one
			// lost in flight: the client retransmits, and the dispatch
			// above already made that safe. Keep serving unless the
			// socket itself died.
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			if s.Logf != nil {
				s.logf("resv: reply to %v failed: %v", addr, err)
			}
		}
	}
}

// acquireUDPPeer resolves addr to its virtual connection, creating one on
// first contact, and marks a dispatch in flight so a concurrent reader
// cannot reap the peer between lookup and install.
func (s *Server) acquireUDPPeer(addr net.Addr) *conn {
	key := addr.String()
	s.udpMu.Lock()
	c := s.udpPeers[key]
	if c == nil {
		c = &conn{datagram: true, raddr: addr, key: key}
		if s.udpPeers == nil {
			s.udpPeers = make(map[string]*conn)
		}
		s.udpPeers[key] = c
		s.metrics.UDPPeers.Inc()
	}
	c.inflight++
	s.udpMu.Unlock()
	return c
}

// releaseUDPPeer ends a dispatch and reaps the peer if it is now idle.
func (s *Server) releaseUDPPeer(c *conn) {
	s.udpMu.Lock()
	c.inflight--
	s.reapUDPPeerLocked(c)
	s.udpMu.Unlock()
}

// reapUDPPeerLocked forgets the peer c when no dispatch is in flight on it
// and it holds no flows — unless it was forgotten already, and its
// address may since belong to a new peer. Callers hold udpMu.
func (s *Server) reapUDPPeerLocked(c *conn) {
	if c.inflight > 0 {
		return
	}
	if c.flows.Len() == 0 && s.udpPeers[c.key] == c {
		delete(s.udpPeers, c.key)
		s.metrics.UDPPeers.Dec()
	}
}
