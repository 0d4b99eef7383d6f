package resv

import (
	"io"
	"net"
	"sync"
	"time"
)

// Lifecycle is what a serving plane (a Server, a cluster node) owns besides
// its admission state: its clock, its background loops, its accept loops
// and the connections it serves, inbound streams and datagram sockets.
// Close ends all of them, so a closed plane holds nothing: every
// connection it served is closed, and its release has run. The clock
// counts nanoseconds since the plane's epoch on the monotonic clock, and
// it is the only clock serving code reads (Now): once per read, datagram,
// tick or connection release, whose instant every cell and policy call
// under it then takes.
type Lifecycle struct {
	epoch time.Time
	stop  chan struct{} // closed once Close begins

	// mu guards conns and orders registration against Close: a loop or a
	// connection registers only while the plane is not stopping, so wg
	// gains nothing once Close waits on it.
	mu    sync.Mutex
	conns map[io.Closer]struct{}
	wg    sync.WaitGroup // running loops and handlers, releases included
}

// NewLifecycle returns a running lifecycle whose clock starts now.
func NewLifecycle() *Lifecycle {
	return &Lifecycle{epoch: time.Now(), stop: make(chan struct{}), conns: make(map[io.Closer]struct{})}
}

// Now is the plane's clock: nanoseconds since its epoch.
func (l *Lifecycle) Now() int64 { return int64(time.Since(l.epoch)) }

// Stopping reports whether Close has begun.
func (l *Lifecycle) Stopping() bool {
	select {
	case <-l.stop:
		return true
	default:
		return false
	}
}

// Every runs tick every interval, at the plane's time, on a goroutine of
// its own until Close, which waits for it. Once Close has begun it starts
// nothing.
func (l *Lifecycle) Every(interval time.Duration, tick func(now int64)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.Stopping() {
		return
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-t.C:
				tick(l.Now())
			}
		}
	}()
}

// Accept hands every connection ln accepts to serve, each on a goroutine
// of its own, until ln is closed. It always returns a non-nil error
// (net.ErrClosed after a clean shutdown). Close does not close ln: serve
// should run its connection through Serve, which closes a connection
// accepted once Close has begun unserved.
func (l *Lifecycle) Accept(ln net.Listener, serve func(net.Conn)) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		go serve(nc)
	}
}

// Serve runs nc through ServeConn with h, then closes nc and runs release,
// the handler's clean-up, as run does, with what ServeConn returned (nil
// for a connection closed unserved). Close waits for release, so anything
// the handler does on its way out, a log line included, belongs there.
func (l *Lifecycle) Serve(nc net.Conn, h Handler, release func(err error)) {
	var err error
	l.run(nc, func() { err = l.ServeConn(nc, h) }, func() { release(err) })
}

// run serves the connection c with serve, then closes c and runs release.
// It registers c first, so Close closes it, which must end serve, and
// waits for run to return, release included. A connection that arrives
// once Close has begun is closed unserved, and its release still runs.
func (l *Lifecycle) run(c io.Closer, serve, release func()) {
	l.mu.Lock()
	serving := !l.Stopping()
	if serving {
		l.conns[c] = struct{}{}
		l.wg.Add(1)
		defer l.wg.Done()
	}
	l.mu.Unlock()
	if serving {
		serve()
	}
	_ = c.Close()
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
	release()
}

// Close ends the plane: it stops the loops, closes every connection run
// is serving, and returns once the loops have exited and the handlers have
// returned, their releases included. Later calls just wait.
func (l *Lifecycle) Close() {
	l.mu.Lock()
	if !l.Stopping() {
		close(l.stop)
		for nc := range l.conns {
			_ = nc.Close()
		}
	}
	l.mu.Unlock()
	l.wg.Wait()
}
