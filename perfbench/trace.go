package main

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/profile"
	"qosneg/internal/qos"
	"qosneg/internal/transport"
)

// This file holds the traced run's decorators. They wrap the public
// interfaces each layer is called through — core.SessionManager (what the
// protocol server calls), every core.MediaServer, the core.Transport and
// the listener's net.Conns — and record calls, failures and the time
// inside each call, summed per layer. The manager calls of one session
// carry the id of the caller that made them, derived from the client
// machine the request names, because the wire carries no request id: the
// manager decorator charges its time to that caller, so protocol self time
// is each caller's RPC time minus the manager time of its own requests.

// layer accumulates one wrapped call site.
type layer struct {
	calls, failures, nanos atomic.Int64
}

func (l *layer) record(d time.Duration, failed bool) {
	l.calls.Add(1)
	l.nanos.Add(int64(d))
	if failed {
		l.failures.Add(1)
	}
}

// layerCounts is a plain copy of a layer's counters.
type layerCounts struct {
	calls, failures int64
	nanos           time.Duration
}

func (l *layer) counts() layerCounts {
	return layerCounts{calls: l.calls.Load(), failures: l.failures.Load(), nanos: time.Duration(l.nanos.Load())}
}

func (a layerCounts) sub(b layerCounts) layerCounts {
	return layerCounts{calls: a.calls - b.calls, failures: a.failures - b.failures, nanos: a.nanos - b.nanos}
}

func (a layerCounts) add(b layerCounts) layerCounts {
	return layerCounts{calls: a.calls + b.calls, failures: a.failures + b.failures, nanos: a.nanos + b.nanos}
}

// mean is the average time of one call.
func (a layerCounts) mean() time.Duration {
	if a.calls == 0 {
		return 0
	}
	return a.nanos / time.Duration(a.calls)
}

// tracer sums the traced run's calls per layer.
type tracer struct {
	callerOf map[network.NodeID]int

	negotiate, reject layer // core.SessionManager
	reserve, release  layer // core.MediaServer
	connect, close    layer // core.Transport
	writes            layer // server-side net.Conn writes
	// links counts established network connections (discrete media need
	// none); keptStreams and keptLinks count the CMFS streams and network
	// connections the committed offers of successful negotiations hold.
	links, keptStreams, keptLinks atomic.Int64
	bytesRead, written, reads     atomic.Int64
	// coreNanos is manager time per caller.
	coreNanos [callers]atomic.Int64

	sessMu        sync.Mutex
	sessionCaller map[core.SessionID]int
}

func newTracer(w workload) *tracer {
	t := &tracer{callerOf: make(map[network.NodeID]int), sessionCaller: make(map[core.SessionID]int)}
	for c := 0; c < callers; c++ {
		for _, m := range callerMachines(w, c) {
			t.callerOf[m.Node] = c
		}
	}
	return t
}

// traceCounts is a snapshot of every tracer counter; a phase's figures are
// the difference of two snapshots.
type traceCounts struct {
	negotiate, reject, reserve, release, connect, close, writes layerCounts
	links, keptStreams, keptLinks, bytes, reads                 int64
	coreNanos                                                   [callers]time.Duration
}

func (t *tracer) snapshot() traceCounts {
	s := traceCounts{
		negotiate:   t.negotiate.counts(),
		reject:      t.reject.counts(),
		reserve:     t.reserve.counts(),
		release:     t.release.counts(),
		connect:     t.connect.counts(),
		close:       t.close.counts(),
		writes:      t.writes.counts(),
		links:       t.links.Load(),
		keptStreams: t.keptStreams.Load(),
		keptLinks:   t.keptLinks.Load(),
		bytes:       t.bytesRead.Load() + t.written.Load(),
		reads:       t.reads.Load(),
	}
	for c := range s.coreNanos {
		s.coreNanos[c] = time.Duration(t.coreNanos[c].Load())
	}
	return s
}

func (a traceCounts) sub(b traceCounts) traceCounts {
	d := traceCounts{
		negotiate:   a.negotiate.sub(b.negotiate),
		reject:      a.reject.sub(b.reject),
		reserve:     a.reserve.sub(b.reserve),
		release:     a.release.sub(b.release),
		connect:     a.connect.sub(b.connect),
		close:       a.close.sub(b.close),
		writes:      a.writes.sub(b.writes),
		links:       a.links - b.links,
		keptStreams: a.keptStreams - b.keptStreams,
		keptLinks:   a.keptLinks - b.keptLinks,
		bytes:       a.bytes - b.bytes,
		reads:       a.reads - b.reads,
	}
	for c := range d.coreNanos {
		d.coreNanos[c] = a.coreNanos[c] - b.coreNanos[c]
	}
	return d
}

// add sums two phases' figures.
func (a traceCounts) add(b traceCounts) traceCounts {
	d := traceCounts{
		negotiate:   a.negotiate.add(b.negotiate),
		reject:      a.reject.add(b.reject),
		reserve:     a.reserve.add(b.reserve),
		release:     a.release.add(b.release),
		connect:     a.connect.add(b.connect),
		close:       a.close.add(b.close),
		writes:      a.writes.add(b.writes),
		links:       a.links + b.links,
		keptStreams: a.keptStreams + b.keptStreams,
		keptLinks:   a.keptLinks + b.keptLinks,
		bytes:       a.bytes + b.bytes,
		reads:       a.reads + b.reads,
	}
	for c := range d.coreNanos {
		d.coreNanos[c] = a.coreNanos[c] + b.coreNanos[c]
	}
	return d
}

// negotiationSubstrate is the substrate time spent inside negotiations:
// every reservation and connection attempt, plus the releases and closes
// of step 5's rollbacks. A rollback runs on the negotiating goroutine,
// which a decorator cannot tell from a reject's, so rollbacks are charged
// the mean release and close time: only negotiations reserve, and every
// reservation or connection a committed offer does not keep is rolled
// back inside the negotiation that made it.
func (t traceCounts) negotiationSubstrate() time.Duration {
	rolledStreams := t.reserve.calls - t.reserve.failures - t.keptStreams
	rolledConns := t.connect.calls - t.connect.failures - t.keptStreams
	return t.reserve.nanos + t.connect.nanos +
		time.Duration(rolledStreams)*t.release.mean() + time.Duration(rolledConns)*t.close.mean()
}

// usefulReservations is the share of reservations — CMFS streams and
// network connections — that a committed offer kept.
func (t traceCounts) usefulReservations() float64 {
	made := t.reserve.calls - t.reserve.failures + t.links
	return div(float64(t.keptStreams+t.keptLinks), float64(made))
}

// tracedManager decorates the session manager the protocol server calls.
type tracedManager struct {
	core.SessionManager
	t *tracer
}

func (m tracedManager) NegotiateContext(ctx context.Context, mach client.Machine, doc media.DocumentID, u profile.UserProfile) (core.Result, error) {
	start := time.Now()
	res, err := m.SessionManager.NegotiateContext(ctx, mach, doc, u)
	d := time.Since(start)
	c := m.t.callerOf[mach.Node]
	if res.Session != nil {
		m.t.sessMu.Lock()
		m.t.sessionCaller[res.Session.ID] = c
		m.t.sessMu.Unlock()
		for _, ch := range res.Session.CurrentOffer().Choices {
			m.t.keptStreams.Add(1)
			if !ch.Variant.NetworkQoS().Zero() {
				m.t.keptLinks.Add(1)
			}
		}
	}
	m.t.negotiate.record(d, err != nil || !res.Status.Reserved())
	m.t.coreNanos[c].Add(int64(d))
	return res, err
}

func (m tracedManager) Reject(id core.SessionID) error {
	start := time.Now()
	err := m.SessionManager.Reject(id)
	d := time.Since(start)
	m.t.sessMu.Lock()
	c := m.t.sessionCaller[id]
	delete(m.t.sessionCaller, id)
	m.t.sessMu.Unlock()
	m.t.reject.record(d, err != nil)
	m.t.coreNanos[c].Add(int64(d))
	return err
}

// tracedServer decorates one CMFS server.
type tracedServer struct {
	core.MediaServer
	t *tracer
}

func (s tracedServer) Reserve(q qos.NetworkQoS) (cmfs.Reservation, error) {
	start := time.Now()
	r, err := s.MediaServer.Reserve(q)
	d := time.Since(start)
	s.t.reserve.record(d, err != nil)
	return r, err
}

func (s tracedServer) Release(id cmfs.ReservationID) error {
	start := time.Now()
	err := s.MediaServer.Release(id)
	d := time.Since(start)
	s.t.release.record(d, err != nil)
	return err
}

// tracedTransport decorates the transport system: Connect is path search
// plus link reservation.
type tracedTransport struct {
	core.Transport
	t *tracer
}

func (tt tracedTransport) Connect(src, dst network.NodeID, q qos.NetworkQoS) (transport.Connection, error) {
	start := time.Now()
	c, err := tt.Transport.Connect(src, dst, q)
	d := time.Since(start)
	tt.t.connect.record(d, err != nil)
	if err == nil && !q.Zero() {
		tt.t.links.Add(1)
	}
	return c, err
}

func (tt tracedTransport) Close(c transport.Connection) error {
	start := time.Now()
	err := tt.Transport.Close(c)
	d := time.Since(start)
	tt.t.close.record(d, err != nil)
	return err
}

// tracedListener hands the protocol server counting connections.
type tracedListener struct {
	net.Listener
	t *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: l.t}, nil
}

// tracedConn counts a server connection's reads, writes and bytes, and
// times its writes; a read's time is mostly waiting for the peer, so it is
// not recorded.
type tracedConn struct {
	net.Conn
	t *tracer
}

func (c *tracedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.t.reads.Add(1)
	c.t.bytesRead.Add(int64(n))
	return n, err
}

func (c *tracedConn) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(b)
	c.t.writes.record(time.Since(start), err != nil)
	c.t.written.Add(int64(n))
	return n, err
}
