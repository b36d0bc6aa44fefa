package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/cmfs"
	"qosneg/internal/core"
	"qosneg/internal/cost"
	"qosneg/internal/ledger"
	"qosneg/internal/media"
	"qosneg/internal/network"
	"qosneg/internal/offercache"
	"qosneg/internal/profile"
	"qosneg/internal/protocol"
	"qosneg/internal/registry"
	"qosneg/internal/telemetry"
	"qosneg/internal/transport"
)

// system is one assembled negotiation system served on loopback, with a
// protocol.Client connection per caller. It is built from the public
// constructors the qosneg facade uses, the way qosnegd builds its server
// by default: one manager, a metrics registry, the binary codec preferred,
// and admission control, shards, the span tracer and the consecutive-
// failure circuit breaker all off.
type system struct {
	w        workload
	docs     []media.Document
	expect   []expectation
	profile  profile.UserProfile
	network  *network.Network
	servers  []*cmfs.Server
	manager  *core.Manager
	ledger   *ledger.Ledger
	metrics  *telemetry.Registry
	srv      *protocol.Server
	listener net.Listener
	served   chan error
	callers  [callers]*callerState
}

// callerState is one closed-loop caller: its connection, its request
// stream, the sessions it holds and what it has measured.
type callerState struct {
	cl   *protocol.Client
	reqs *requests
	held []heldSession
	// lat collects negotiate RPC latencies while recording; recorded is
	// its length, published for the timed phase's cuts.
	lat      []time.Duration
	recorded atomic.Int64
	// rpc is the total negotiate plus reject RPC time while recording.
	rpc      time.Duration
	rpcs     int
	sessions int
	failed   int
	firstErr error
}

type heldSession struct {
	id      core.SessionID
	streams int
}

// build assembles, loads, serves and dials a system. A non-nil tracer
// wraps every layer interface with its decorators.
func build(w workload, seed int64, docs []media.Document, expect []expectation, tr *tracer) (*system, error) {
	n, err := buildTopology(w)
	if err != nil {
		return nil, err
	}
	s := &system{
		w:       w,
		docs:    docs,
		expect:  expect,
		profile: sectionFiveProfile(),
		network: n,
		ledger:  ledger.New(),
		metrics: telemetry.NewRegistry(),
		served:  make(chan error, 1),
	}
	n.SetLedger(s.ledger)
	opts := core.DefaultOptions()
	opts.Metrics = s.metrics
	ts := transport.New(n, opts.PathAlternates)
	ts.SetLedger(s.ledger)
	var tsp core.Transport = ts
	if tr != nil {
		tsp = tracedTransport{Transport: ts, t: tr}
	}
	reg := registry.New()
	s.manager = core.NewManager(reg, tsp, cost.DefaultPricing(), opts)
	for _, id := range serverIDs(w.servers) {
		srv, err := cmfs.NewServer(id, cmfs.DefaultConfig())
		if err != nil {
			return nil, err
		}
		srv.SetLedger(s.ledger)
		srv.Instrument(s.metrics)
		s.servers = append(s.servers, srv)
		var ms core.MediaServer = srv
		if tr != nil {
			ms = tracedServer{MediaServer: srv, t: tr}
		}
		s.manager.AddServer(ms, network.NodeID(id))
	}
	n.Instrument(s.metrics)
	s.ledger.Instrument(s.metrics)
	for _, d := range docs {
		if err := reg.Add(d); err != nil {
			return nil, err
		}
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.listener = l
	var man core.SessionManager = s.manager
	if tr != nil {
		man = tracedManager{SessionManager: s.manager, t: tr}
		l = tracedListener{Listener: l, t: tr}
	}
	s.srv = protocol.NewServer(man, reg)
	s.srv.Instrument(s.metrics)
	go func() { s.served <- s.srv.Serve(l) }()
	for c := range s.callers {
		cl, err := protocol.DialRetry(context.Background(), s.listener.Addr().String(), protocol.RetryPolicy{})
		if err != nil {
			s.close()
			return nil, err
		}
		if cl.Codec() != protocol.CodecBinary {
			cl.Close()
			s.close()
			return nil, fmt.Errorf("caller %d: negotiated codec %q, want binary", c, cl.Codec())
		}
		s.callers[c] = &callerState{cl: cl, reqs: newRequests(w, seed, c, len(docs))}
	}
	return s, nil
}

// close stops the callers' connections, the server and the listener.
func (s *system) close() {
	for _, c := range s.callers {
		if c != nil {
			c.cl.Close()
		}
	}
	s.listener.Close()
	s.srv.Close()
	<-s.served
}

// warm runs sessions until the offer cache holds every document it can
// (the whole catalog or the cache's capacity), then w.warmup more per
// caller: connections, pools and the heap are warm before anything is
// measured.
func (s *system) warm(ctx context.Context) {
	full := len(s.docs)
	if full > offercache.DefaultSize {
		full = offercache.DefaultSize
	}
	// A cache that stops growing short of that is as full as it gets.
	for last, still := -1, 0; still < 8; {
		n := s.manager.Stats().OfferCacheEntries
		if n >= full {
			break
		}
		if n == last {
			still++
		} else {
			last, still = n, 0
		}
		s.runCount(ctx, 16, false)
	}
	s.runCount(ctx, s.w.warmup, false)
}

// runCount runs n sessions on every caller concurrently.
func (s *system) runCount(ctx context.Context, n int, record bool) {
	s.parallel(func(c *callerState) {
		for i := 0; i < n; i++ {
			s.session(ctx, c, record)
		}
	})
}

// roundSessions is how many sessions a caller runs between two looks at
// its stop condition, so every timed run attempts whole rounds.
const roundSessions = 32

// runWhile runs whole rounds on every caller while more reports true and
// returns when the last caller has finished its round.
func (s *system) runWhile(ctx context.Context, more func() bool, record bool) {
	s.parallel(func(c *callerState) {
		for more() {
			for i := 0; i < roundSessions; i++ {
				s.session(ctx, c, record)
			}
		}
	})
}

func (s *system) parallel(f func(c *callerState)) {
	done := make(chan struct{}, len(s.callers))
	for _, c := range s.callers {
		go func(c *callerState) {
			f(c)
			done <- struct{}{}
		}(c)
	}
	for range s.callers {
		<-done
	}
}

// session runs one session for a caller: on hold workloads it first
// rejects the caller's oldest held session once the window is full, then
// negotiates, checks the answer, and either rejects at once or holds.
func (s *system) session(ctx context.Context, c *callerState, record bool) {
	var fail error
	var spent time.Duration
	rpcs := 1
	if s.w.hold > 0 && len(c.held) >= s.w.hold {
		old := c.held[0]
		copy(c.held, c.held[1:])
		c.held = c.held[:len(c.held)-1]
		rpcs++
		t0 := time.Now()
		if err := c.cl.Reject(ctx, old.id); err != nil {
			fail = fmt.Errorf("reject session %d: %w", old.id, err)
		}
		spent += time.Since(t0)
	}
	mach, di := c.reqs.next()
	t0 := time.Now()
	res, err := c.cl.Negotiate(ctx, mach, s.docs[di].ID, s.profile)
	d := time.Since(t0)
	spent += d
	switch {
	case err != nil:
		fail = errors.Join(fail, fmt.Errorf("negotiate %s: %w", s.docs[di].ID, err))
	case s.w.idle():
		if cerr := checkIdle(s.expect[di], res); cerr != nil {
			fail = errors.Join(fail, fmt.Errorf("%s on %s: %w", s.docs[di].ID, mach.ID, cerr))
		}
		if res.Status.Reserved() {
			rpcs++
			t1 := time.Now()
			if err := c.cl.Reject(ctx, res.Session); err != nil {
				fail = errors.Join(fail, fmt.Errorf("reject session %d: %w", res.Session, err))
			}
			spent += time.Since(t1)
		}
	default:
		if cerr := checkHeld(s.expect[di], res); cerr != nil {
			fail = errors.Join(fail, fmt.Errorf("%s on %s: %w", s.docs[di].ID, mach.ID, cerr))
		}
		if res.Status.Reserved() {
			c.held = append(c.held, heldSession{id: res.Session, streams: s.expect[di].components})
		}
	}
	c.sessions++
	if record {
		c.lat = append(c.lat, d)
		c.recorded.Store(int64(len(c.lat)))
		c.rpc += spent
		c.rpcs += rpcs
	}
	if fail != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = fail
		}
	}
}

// heldStreams is the number of CMFS streams the callers' held sessions
// need.
func (s *system) heldStreams() int {
	n := 0
	for _, c := range s.callers {
		for _, h := range c.held {
			n += h.streams
		}
	}
	return n
}

// checkQuiet checks the substrate while no call is in flight: hold
// workloads must hold exactly their sessions' streams.
func (s *system) checkQuiet() error {
	if err := checkNoOvercommit(s.network, s.servers); err != nil {
		return err
	}
	return checkStreams(s.servers, s.heldStreams())
}

// windDown rejects every held session and checks that nothing is left
// reserved.
func (s *system) windDown(ctx context.Context) error {
	for _, c := range s.callers {
		for _, h := range c.held {
			if err := c.cl.Reject(ctx, h.id); err != nil {
				return fmt.Errorf("wind-down reject of session %d: %w", h.id, err)
			}
		}
		c.held = nil
	}
	return checkWindDown(s.ledger, s.network, s.servers)
}

// watchOvercommit samples the substrate every interval until stop is
// closed and reports each overcommitted sample; it returns once it has
// stopped.
func (s *system) watchOvercommit(interval time.Duration, stop <-chan struct{}) (samples, violations int, first error) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return samples, violations, first
		case <-t.C:
			samples++
			if err := checkNoOvercommit(s.network, s.servers); err != nil {
				violations++
				if first == nil {
					first = err
				}
			}
		}
	}
}

// referenceMachine is the machine class the expectations are computed for:
// every caller's machines are workstations with the same capabilities.
func referenceMachine(w workload) client.Machine { return callerMachines(w, 0)[0] }
