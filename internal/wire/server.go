package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/broker"
	"repro/internal/event"
	"repro/internal/metrics"
)

// maxConnConcurrency bounds in-flight requests per connection: deep
// enough that a pipelined client never stalls on the server, bounded so
// a misbehaving peer cannot spawn unbounded handler goroutines.
const maxConnConcurrency = 64

// errUnknownOp reports a request op the server does not implement.
var errUnknownOp = errors.New("wire: unknown op")

// Server exposes a fabric over TCP. Each connection authenticates once
// with an IAM-style access key (OpAuth) and then issues data-plane
// requests under that identity; ACLs are enforced by the fabric.
//
// A connection starts in v1 (JSON header) framing. A v2-capable client
// opens with OpNegotiate; the server answers with the selected version
// and, when it is ≥ 2, both sides switch to typed binary headers for
// every later frame on that connection. Old clients never negotiate
// and are served in v1 framing throughout.
//
// Requests on one connection are handled concurrently (up to
// maxConnConcurrency in flight): the read loop decodes each header,
// dispatches the typed request to a handler goroutine, and responses
// are written, correlation-tagged, in completion order — a slow fetch
// does not block the produces pipelined behind it.
type Server struct {
	Fabric *broker.Fabric
	// AllowAnonymous lets connections skip OpAuth and act as the
	// trusted in-process identity. Off by default; used by tests and
	// single-user deployments.
	AllowAnonymous bool
	// MaxVersion caps the negotiable protocol version (0 = MaxProtocol).
	// Setting it to ProtocolV1 reproduces a legacy server: OpNegotiate
	// is answered with an "unknown op" error, exactly as servers that
	// predate the handshake answer it.
	MaxVersion int
	// DisableStreaming masks FeatStreamFetch out of negotiation,
	// emulating a v2 server that predates streaming fetch: stream opens
	// are refused as unknown ops and clients fall back to pipelined
	// request/response fetch.
	DisableStreaming bool
	// DisableClusterMeta masks FeatClusterMeta out of negotiation,
	// emulating a v2 server that predates cluster metadata discovery:
	// OpMetadata is refused as an unknown op and clients fall back to
	// single-address slot hashing.
	DisableClusterMeta bool
	// DisableSessionFetch masks FeatSessionFetch out of negotiation,
	// emulating a v2 server that predates multiplexed fetch sessions:
	// session opens are refused as unknown ops and clients fall back to
	// per-partition streaming fetch.
	DisableSessionFetch bool
	// DisableMetaPush masks FeatMetaPush out of negotiation and stops
	// the epoch watcher from pushing metadata frames, emulating a v2
	// server that predates pushed metadata: clients fall back to
	// reactive re-fetch after a misrouted request.
	DisableMetaPush bool
	// DisableReplication masks FeatReplication out of negotiation,
	// emulating a v2 server that predates inter-broker replication:
	// replica fetches are refused as unknown ops, followers never catch
	// up, and the cluster degrades to single-replica operation (the ISR
	// shrinks to the leader).
	DisableReplication bool
	// DisableStats masks FeatStats out of negotiation, emulating a v2
	// server that predates the observability snapshot: OpStats is
	// refused as an unknown op and tooling falls back to the HTTP
	// metrics listener, when one is configured.
	DisableStats bool
	// LocalBroker scopes this server to one broker of the fabric:
	// produce, fetch and stream-open requests for partitions that
	// broker does not lead are refused with ErrNotLeader (and counted
	// in Misroutes) instead of silently served from the shared
	// in-process state — the per-broker serving contract of
	// internal/clusternet. The default -1 serves every partition, the
	// single-listener behavior.
	LocalBroker int

	// misroutes counts data-plane requests refused with ErrNotLeader.
	// A leader-direct client fleet should hold it at zero in steady
	// state; failover tests assert exactly that.
	misroutes atomic.Int64

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]*connState
	closed   bool
	watching bool
	stop     chan struct{}
	wg       sync.WaitGroup

	metOnce sync.Once
	reg     *metrics.Registry
	met_    *serverMetrics
}

// connState is the per-connection state the server tracks outside the
// connection's own read loop, so the metadata pusher can find every
// push-capable connection. Mutated under Server.mu (negotiation and
// auth happen once per connection; pushes read a snapshot).
type connState struct {
	w        *respWriter
	features uint32
	authed   bool
}

// serverMetrics is the server's stream/session instrumentation,
// exported through an internal/metrics Registry (see Server.Metrics).
type serverMetrics struct {
	// sessionsOpen / streamsOpen gauge currently open fetch sessions
	// and per-partition streams across all connections.
	sessionsOpen *metrics.Gauge
	streamsOpen  *metrics.Gauge
	// pumpParks counts session pump parks (no credit or no ready sub);
	// creditStalls counts the subset parked with data ready but no
	// window — true client backpressure.
	pumpParks    *metrics.Counter
	creditStalls *metrics.Counter
	// metaPushes counts pushed metadata frames.
	metaPushes *metrics.Counter
	// produceNs / fetchNs time the server-side dispatch of produce and
	// fetch requests — decode, fabric call, response build — the
	// broker's wire-visible service time, minus transport queueing.
	// fetchNs includes any long-poll park (FetchReq.WaitMaxMS), so an
	// idle consumer fleet shows up in the upper quantiles, not as an
	// anomaly.
	produceNs *metrics.BucketHist
	fetchNs   *metrics.BucketHist
	// streamBatch / sessionBatch size every batch the stream and
	// session pumps push, in events — the server-push twin of the
	// fabric's fetch_batch_events.
	streamBatch  *metrics.BucketHist
	sessionBatch *metrics.BucketHist
}

// met returns the server's metrics, creating the registry on first use.
func (s *Server) met() *serverMetrics {
	s.metOnce.Do(func() {
		s.reg = metrics.NewRegistry()
		s.met_ = &serverMetrics{
			sessionsOpen: s.reg.Gauge("wire_sessions_open"),
			streamsOpen:  s.reg.Gauge("wire_streams_open"),
			pumpParks:    s.reg.Counter("wire_session_pump_parks"),
			creditStalls: s.reg.Counter("wire_session_credit_stalls"),
			metaPushes:   s.reg.Counter("wire_meta_pushes"),
			produceNs:    s.reg.BucketHist("wire_produce_ns"),
			fetchNs:      s.reg.BucketHist("wire_fetch_ns"),
			streamBatch:  s.reg.BucketHist("wire_stream_batch_events"),
			sessionBatch: s.reg.BucketHist("wire_session_batch_events"),
		}
	})
	return s.met_
}

// Metrics exposes the server's stream/session counters: open sessions
// and streams, session pump parks and credit stalls, and pushed
// metadata frames.
func (s *Server) Metrics() *metrics.Registry {
	s.met()
	return s.reg
}

// NewServer creates a wire server for the fabric, serving every
// partition (LocalBroker -1).
func NewServer(f *broker.Fabric) *Server {
	return &Server{
		Fabric: f, conns: make(map[net.Conn]*connState),
		LocalBroker: -1, stop: make(chan struct{}),
	}
}

// NewBrokerServer creates a wire server scoped to one broker of the
// fabric: the per-node serving view clusternet binds to each broker's
// advertised address.
func NewBrokerServer(f *broker.Fabric, brokerID int) *Server {
	s := NewServer(f)
	s.LocalBroker = brokerID
	return s
}

// Misroutes reports how many data-plane requests this server refused
// with ErrNotLeader because they targeted a partition its broker does
// not lead.
func (s *Server) Misroutes() int64 { return s.misroutes.Load() }

// leaderCheck enforces the per-broker serving scope: a data-plane
// request for a partition led elsewhere is refused with ErrNotLeader
// carrying the current leader's id, so the client knows to re-fetch
// metadata and re-route. Unscoped servers (LocalBroker < 0) and
// per-event-routed produces (partition < 0, the single-address
// fallback path) pass through.
func (s *Server) leaderCheck(topic string, partition int) error {
	if s.LocalBroker < 0 || partition < 0 {
		return nil
	}
	leader, err := s.Fabric.PartitionLeader(topic, partition)
	if err != nil {
		return err
	}
	if leader != s.LocalBroker {
		s.misroutes.Add(1)
		return fmt.Errorf("%w: %s/%d is led by broker %d, not broker %d",
			ErrNotLeader, topic, partition, leader, s.LocalBroker)
	}
	return nil
}

func (s *Server) maxVersion() int {
	if s.MaxVersion <= 0 || s.MaxVersion > MaxProtocol {
		return MaxProtocol
	}
	return s.MaxVersion
}

// featureMask is the feature set this server offers in negotiation.
func (s *Server) featureMask() uint32 {
	feats := allFeatures
	if s.DisableStreaming {
		feats &^= FeatStreamFetch
	}
	if s.DisableClusterMeta {
		feats &^= FeatClusterMeta
	}
	if s.DisableSessionFetch {
		feats &^= FeatSessionFetch
	}
	if s.DisableMetaPush {
		feats &^= FeatMetaPush
	}
	if s.DisableReplication {
		feats &^= FeatReplication
	}
	if s.DisableStats {
		feats &^= FeatStats
	}
	return feats
}

// Listen starts accepting on addr ("127.0.0.1:0" for an ephemeral port)
// and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.listener = ln
	if s.stop == nil {
		s.stop = make(chan struct{})
	}
	// Start the metadata pusher with the first listener: on every
	// controller epoch bump it pushes the fresh cluster view to every
	// connection that negotiated FeatMetaPush, so clients re-route
	// before a request fails rather than after.
	watch := !s.watching && !s.DisableMetaPush && s.Fabric.Ctl != nil
	if watch {
		s.watching = true
		s.wg.Add(1)
	}
	s.mu.Unlock()
	if watch {
		go s.watchEpochs()
	}
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// watchEpochs pushes cluster metadata to push-capable connections on
// every controller epoch bump. Bursts of bumps coalesce in the
// watcher's channel, so a storm of topology changes costs a handful of
// pushes, not one per change.
func (s *Server) watchEpochs() {
	defer s.wg.Done()
	ch, cancel := s.Fabric.Ctl.WatchEpoch()
	defer cancel()
	for {
		select {
		case <-s.stop:
			return
		case <-ch:
		}
		s.pushMetadata()
	}
}

// pushMetadata builds one metadata response and pushes it (corr 0 —
// push frames are routed by op, not correlation) to every
// authenticated connection that negotiated FeatMetaPush.
func (s *Server) pushMetadata() {
	resp := buildMetadataResp(s.Fabric, nil)
	s.mu.Lock()
	targets := make([]*respWriter, 0, len(s.conns))
	for _, cst := range s.conns {
		if cst.w != nil && cst.authed && cst.features&FeatMetaPush != 0 {
			targets = append(targets, cst.w)
		}
	}
	s.mu.Unlock()
	met := s.met()
	for _, w := range targets {
		if w.writeV2(v2OpMetadataPush, 0, resp, nil, nil) == nil {
			met.metaPushes.Inc()
		}
	}
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = &connState{authed: s.AllowAnonymous}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Close stops the listener and all connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.stop != nil {
		close(s.stop)
	}
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// respWriter coalesces response frames from a connection's concurrent
// handlers: frames accumulate in a pending frameVec under the lock and a
// flusher goroutine writes whatever has piled up in one vectored
// syscall. When many requests are in flight, their responses leave as a
// handful of packets — which also lets the client's reader drain them
// from one netpoll wakeup instead of one per response. Event values of
// at least borrowMin bytes are written straight from the log's
// write-once arenas, never copied into the pending buffer.
type respWriter struct {
	conn net.Conn

	mu     sync.Mutex
	cond   *sync.Cond
	pend   frameVec // encoded frames awaiting flush
	err    error    // sticky write failure
	closed bool
	done   chan struct{} // closed when the flusher exits
}

func newRespWriter(conn net.Conn) *respWriter {
	w := &respWriter{conn: conn, done: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.flushLoop()
	return w
}

// write enqueues one v1 response frame whose payload is the marshaled
// event batch (nil for payload-free responses).
func (w *respWriter) write(resp *Response, evs []event.Event) error {
	return w.enqueue(func(v *frameVec) error {
		return v.appendV1(resp, nil, evs)
	})
}

// writeV2 enqueues one v2 response frame: a typed binary header (or an
// error code + detail when respErr is non-nil) followed by the
// marshaled event batch.
func (w *respWriter) writeV2(op uint8, corr uint64, m Msg, respErr error, evs []event.Event) error {
	return w.enqueue(func(v *frameVec) error {
		return v.appendResponseV2(op, corr, m, respErr, evs)
	})
}

func (w *respWriter) enqueue(encode func(*frameVec) error) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if err := encode(&w.pend); err != nil {
		w.mu.Unlock()
		return err
	}
	w.cond.Signal()
	w.mu.Unlock()
	return nil
}

// close stops the flusher and waits for everything enqueued to reach
// the connection, so tearing the connection down cannot drop responses
// to requests that were already handled. The write deadline bounds the
// wait when the peer has stopped reading.
func (w *respWriter) close() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	_ = w.conn.SetWriteDeadline(time.Now().Add(IOTimeout))
	<-w.done
}

func (w *respWriter) flushLoop() {
	defer close(w.done)
	var out frameVec
	for {
		w.mu.Lock()
		for w.pend.empty() && w.err == nil && !w.closed {
			w.cond.Wait()
		}
		if w.err != nil || (w.closed && w.pend.empty()) {
			w.mu.Unlock()
			return
		}
		out, w.pend = w.pend, out
		w.mu.Unlock()
		err := out.writeTo(w.conn)
		out.reset()
		if err != nil {
			w.mu.Lock()
			w.err = err
			w.cond.Broadcast()
			w.mu.Unlock()
			// Wake the read loop so the connection tears down.
			w.conn.Close()
			return
		}
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	var handlers sync.WaitGroup
	w := newRespWriter(conn)
	// done interrupts parked long-polls and stream tail waits the moment
	// the read loop exits, so teardown never blocks behind a wait.
	done := make(chan struct{})
	streams := newConnStreams(s, w, done)
	sessions := newConnSessions(s, w, done)
	// cst mirrors this connection's auth and feature state for the
	// metadata pusher; all mutations happen under s.mu.
	s.mu.Lock()
	cst := s.conns[conn]
	if cst != nil {
		cst.w = w
	}
	s.mu.Unlock()
	defer func() {
		close(done)
		streams.closeAll()
		sessions.closeAll()
		handlers.Wait()
		w.close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	sem := make(chan struct{}, maxConnConcurrency)
	identity := ""
	authed := s.AllowAnonymous
	// version is the connection's framing, flipped at most once by an
	// inline-handled OpNegotiate. Only the read loop touches it;
	// handlers capture the version their request arrived under.
	version := ProtocolV1
	// features is the negotiated feature set (0 until negotiation).
	features := uint32(0)
	// interner canonicalizes topic strings across this connection's v2
	// data-plane requests (see intern.go). Only the read loop decodes,
	// so it is unsynchronized by construction.
	var interner Interner
	var hdrBuf []byte
	// Buffered reads: a pipelined client coalesces many frames per
	// write, so the read loop should not pay three syscalls per frame.
	// Payload buffers are still allocated fresh per frame, which the
	// produce donation path depends on.
	rd := bufio.NewReaderSize(conn, 64<<10)
	for {
		if version >= ProtocolV2 {
			hb, err := readHeaderInto(rd, &hdrBuf)
			if err != nil {
				return // EOF or broken connection
			}
			corr, op, m, derr := decodeAnyRequestV2(hb, &interner)
			payload, err := ReadPayloadInto(rd, nil)
			if err != nil {
				return
			}
			if derr != nil {
				if len(hb) < v2ReqPrefix {
					// Header too short for even the prefix: the peer is
					// not speaking v2 framing, drop the connection.
					return
				}
				// Unknown op or malformed body with an intact prefix:
				// answer with a typed error, the framing is fine.
				if w.writeV2(op, corr, nil, derr, nil) != nil {
					return
				}
				continue
			}
			// Connection-state ops are handled inline on the read loop:
			// auth flips the principal, stream ops mutate the stream
			// registry. All are non-blocking (open's pump runs async).
			switch q := m.(type) {
			case *AuthReq:
				resp, aerr := s.authenticate(q, &identity, &authed)
				if aerr == nil {
					s.mu.Lock()
					if cst != nil {
						cst.authed = true
					}
					s.mu.Unlock()
				}
				putReqMsg(op, m)
				if w.writeV2(op, corr, resp, aerr, nil) != nil {
					return
				}
				continue
			case *StreamOpenReq:
				var resp *StreamOpenResp
				oerr := fmt.Errorf("%w %d: streaming fetch not negotiated", errUnknownOp, op)
				if features&FeatStreamFetch != 0 {
					resp, oerr = streams.open(q, identity, authed)
				}
				putReqMsg(op, m)
				if oerr != nil {
					if w.writeV2(op, corr, nil, oerr, nil) != nil {
						return
					}
					continue
				}
				if w.writeV2(op, corr, resp, nil, nil) != nil {
					return
				}
				continue
			case *MetadataReq:
				// Control-plane and cheap: handled inline like auth. Gated
				// on the negotiated feature so a masked server answers
				// exactly as one that predates the op, and on
				// authentication — cluster topology (broker addresses,
				// liveness, leadership) must not leak to anyone who can
				// merely reach a port.
				var resp *MetadataResp
				var merr error
				switch {
				case features&FeatClusterMeta == 0:
					merr = fmt.Errorf("%w %d: cluster metadata not negotiated", errUnknownOp, op)
				case !authed:
					merr = fmt.Errorf("%w: connection not authenticated", auth.ErrBadCredentials)
				default:
					resp = buildMetadataResp(s.Fabric, q.Topics)
				}
				putReqMsg(op, m)
				if w.writeV2(op, corr, resp, merr, nil) != nil {
					return
				}
				continue
			case *StreamCreditReq:
				// One-way: grants for closed streams are silently dropped.
				streams.credit(q.ID, q.Credit, q.CreditBytes)
				putReqMsg(op, m)
				continue
			case *StreamCloseReq:
				streams.closeStream(q.ID)
				putReqMsg(op, m)
				continue
			case *SessionOpenReq:
				var resp *SessionOpenResp
				oerr := fmt.Errorf("%w %d: session fetch not negotiated", errUnknownOp, op)
				if features&FeatSessionFetch != 0 {
					resp, oerr = sessions.open(q, identity, authed)
				}
				putReqMsg(op, m)
				if oerr != nil {
					if w.writeV2(op, corr, nil, oerr, nil) != nil {
						return
					}
					continue
				}
				if w.writeV2(op, corr, resp, nil, nil) != nil {
					return
				}
				continue
			case *SessionSubReq:
				// Always answered — the client treats removes as one-way
				// and lets the response drop, but adds need the partition
				// positions back.
				var resp *SessionSubResp
				serr := fmt.Errorf("%w %d: session fetch not negotiated", errUnknownOp, op)
				if features&FeatSessionFetch != 0 {
					resp, serr = sessions.sub(q, authed)
				}
				putReqMsg(op, m)
				if serr != nil {
					if w.writeV2(op, corr, nil, serr, nil) != nil {
						return
					}
					continue
				}
				if w.writeV2(op, corr, resp, nil, nil) != nil {
					return
				}
				continue
			case *SessionCreditReq:
				// One-way: grants for closed sessions are silently dropped.
				sessions.credit(q.SessionID, q.CreditBytes)
				putReqMsg(op, m)
				continue
			case *SessionCloseReq:
				sessions.closeSession(q.SessionID)
				putReqMsg(op, m)
				continue
			case *StatsReq:
				// Control-plane and cheap: handled inline like metadata,
				// with the same feature and auth gates — a broker's
				// telemetry (traffic volumes, latency shapes, topology
				// hints in metric names) must not leak to anyone who can
				// merely reach a port.
				var resp *StatsResp
				var serr error
				switch {
				case features&FeatStats == 0:
					serr = fmt.Errorf("%w %d: stats not negotiated", errUnknownOp, op)
				case !authed:
					serr = fmt.Errorf("%w: connection not authenticated", auth.ErrBadCredentials)
				default:
					resp = buildStatsResp(s)
				}
				putReqMsg(op, m)
				if w.writeV2(op, corr, resp, serr, nil) != nil {
					return
				}
				continue
			case *ReplicaFetchReq:
				// Feature-gated like metadata, but the fetch long-polls
				// and carries events, so a negotiated request falls
				// through to the async dispatch below.
				if features&FeatReplication == 0 {
					putReqMsg(op, m)
					if w.writeV2(op, corr, nil, fmt.Errorf("%w %d: replication not negotiated", errUnknownOp, op), nil) != nil {
						return
					}
					continue
				}
			}
			sem <- struct{}{}
			handlers.Add(1)
			go func(op uint8, corr uint64, m ReqMsg, payload []byte, identity string, authed bool) {
				defer handlers.Done()
				defer func() { <-sem }()
				resp, evs, err := s.dispatch(m, payload, identity, authed, done)
				if werr := w.writeV2(op, corr, resp, err, evs); errors.Is(werr, ErrFrameTooLarge) {
					// The success response didn't fit its frame bound
					// (e.g. a pathologically fragmented offset run list):
					// the caller must still get an answer, or it hangs
					// until the deadline kills the whole connection.
					// Error frames are tiny and always fit.
					_ = w.writeV2(op, corr, nil, werr, nil)
				}
				putReqMsg(op, m)
			}(op, corr, m, payload, identity, authed)
			continue
		}

		var req Request
		payload, err := ReadFrame(rd, &req)
		if err != nil {
			return // EOF or broken connection
		}
		switch req.Op {
		case OpNegotiate:
			// Version handshake; handled inline (before auth — old
			// clients never send it, new clients send it first) because
			// it flips the connection's framing.
			switch {
			case s.maxVersion() < ProtocolV2:
				// Legacy emulation: answer exactly as a server that
				// predates the handshake would.
				resp := errRespV1(fmt.Errorf("%w %q", errUnknownOp, req.Op))
				resp.Corr = req.Corr
				if w.write(resp, nil) != nil {
					return
				}
			case req.MaxVersion >= ProtocolV2:
				resp := &Response{Corr: req.Corr, Version: ProtocolV2, Features: req.Features & s.featureMask()}
				if w.write(resp, nil) != nil {
					return
				}
				// Every frame after this response — in both directions —
				// is v2. The respWriter preserves enqueue order, so the
				// v1 response above always leaves first.
				version = ProtocolV2
				features = resp.Features
				s.mu.Lock()
				if cst != nil {
					cst.features = features
				}
				s.mu.Unlock()
			default:
				resp := &Response{Corr: req.Corr, Version: ProtocolV1}
				if w.write(resp, nil) != nil {
					return
				}
			}
			continue
		case OpAuth:
			aresp := &Response{Corr: req.Corr}
			resp, aerr := s.authenticate(&AuthReq{AccessKeyID: req.AccessKeyID, Secret: req.Secret}, &identity, &authed)
			if aerr == nil {
				s.mu.Lock()
				if cst != nil {
					cst.authed = true
				}
				s.mu.Unlock()
			}
			if aerr != nil {
				aresp = errRespV1(aerr)
				aresp.Corr = req.Corr
			} else {
				resp.toV1(aresp)
			}
			if w.write(aresp, nil) != nil {
				return
			}
			continue
		}
		m, perr := req.typed()
		sem <- struct{}{}
		handlers.Add(1)
		go func(corr uint64, m ReqMsg, perr error, payload []byte, identity string, authed bool) {
			defer handlers.Done()
			defer func() { <-sem }()
			var (
				resp respMsg
				evs  []event.Event
				err  error
			)
			if perr != nil {
				err = perr
			} else {
				resp, evs, err = s.dispatch(m, payload, identity, authed, done)
			}
			v1 := &Response{Corr: corr}
			if err != nil {
				v1 = errRespV1(err)
				v1.Corr = corr
				evs = nil
			} else if resp != nil {
				resp.toV1(v1)
			}
			if werr := w.write(v1, evs); errors.Is(werr, ErrFrameTooLarge) {
				// As on the v2 path: an unencodable success response
				// (e.g. a v1 Offsets array past MaxHeader) must come
				// back as an error, not a hang.
				er := errRespV1(werr)
				er.Corr = corr
				_ = w.write(er, nil)
			}
		}(req.Corr, m, perr, payload, identity, authed)
	}
}

// errRespV1 builds a v1 error response, carrying the sentinel class as
// the legacy err_kind string.
func errRespV1(err error) *Response {
	_, kind := errCodeOf(err)
	return &Response{Err: err.Error(), ErrKind: kind}
}

// typed converts a v1 JSON request header to its typed message — the
// server-side inverse of ReqMsg.v1, which lets the dispatch path be
// version-agnostic.
func (r *Request) typed() (ReqMsg, error) {
	switch r.Op {
	case OpPing:
		return &PingReq{}, nil
	case OpProduce:
		return &ProduceReq{Topic: r.Topic, Partition: r.Partition, Acks: r.Acks, NumEvents: r.NumEvents}, nil
	case OpFetch:
		return &FetchReq{Topic: r.Topic, Partition: r.Partition, Offset: r.Offset, MaxEvents: r.MaxEvents, MaxBytes: r.MaxBytes}, nil
	case OpEndOffset:
		return &EndOffsetReq{Topic: r.Topic, Partition: r.Partition}, nil
	case OpStartOffset:
		return &StartOffsetReq{Topic: r.Topic, Partition: r.Partition}, nil
	case OpOffsetForTime:
		return &OffsetForTimeReq{Topic: r.Topic, Partition: r.Partition, TimeNano: r.TimeNano}, nil
	case OpTopicMeta:
		return &TopicMetaReq{Topic: r.Topic}, nil
	case OpJoinGroup:
		return &JoinGroupReq{Group: r.Group, Member: r.Member, Topics: r.Topics}, nil
	case OpLeaveGroup:
		return &LeaveGroupReq{Group: r.Group, Member: r.Member}, nil
	case OpHeartbeat:
		return &HeartbeatReq{Group: r.Group, Member: r.Member}, nil
	case OpCommit:
		return &CommitReq{Group: r.Group, Member: r.Member, Generation: r.Generation, Topic: r.Topic, Partition: r.Partition, Offset: r.Offset}, nil
	case OpCommitted:
		return &CommittedReq{Group: r.Group, Topic: r.Topic, Partition: r.Partition}, nil
	}
	return nil, fmt.Errorf("%w %q", errUnknownOp, r.Op)
}

// authenticate handles OpAuth against the fabric's identity store.
func (s *Server) authenticate(a *AuthReq, identity *string, authed *bool) (*AuthResp, error) {
	ident, err := s.Fabric.Auth.Authenticate(a.AccessKeyID, a.Secret)
	if err != nil {
		return nil, err
	}
	*identity = ident.ID
	*authed = true
	return &AuthResp{Identity: ident.ID}, nil
}

// dispatch executes one data-plane request against the fabric.
// Responses with an event payload (fetch) return the events themselves;
// the respWriter marshals them straight into the connection's pending
// write buffer, in whichever framing the request arrived under. stop
// interrupts long-poll waits when the connection tears down.
func (s *Server) dispatch(m ReqMsg, payload []byte, identity string, authed bool, stop <-chan struct{}) (respMsg, []event.Event, error) {
	if !authed {
		return nil, nil, fmt.Errorf("%w: connection not authenticated", auth.ErrBadCredentials)
	}
	switch q := m.(type) {
	case *PingReq:
		return &EmptyResp{}, nil, nil
	case *ProduceReq:
		if err := s.leaderCheck(q.Topic, q.Partition); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		evs, err := DecodeEvents(payload, q.NumEvents)
		if err != nil {
			return nil, nil, err
		}
		// The frame buffer is donated to the fabric as the batch arena:
		// decoded events alias it, and from here it is owned by the log
		// records. The read loop allocates a fresh payload buffer per
		// frame, so it never reuses this one.
		off, err := s.Fabric.ProduceDonated(identity, q.Topic, q.Partition, evs, broker.Acks(q.Acks))
		if err != nil {
			return nil, nil, err
		}
		s.met().produceNs.Observe(int64(time.Since(t0)))
		return &ProduceResp{Offset: off}, nil, nil
	case *FetchReq:
		if err := s.leaderCheck(q.Topic, q.Partition); err != nil {
			return nil, nil, err
		}
		// WaitMaxMS long-polls an empty partition on the log's tail
		// waiter (v2 clients only; v1 framing never carries it). The
		// wait is capped below the transport IOTimeout and interrupted
		// by connection teardown.
		wait := time.Duration(q.WaitMaxMS) * time.Millisecond
		if wait > MaxFetchWait {
			wait = MaxFetchWait
		}
		t0 := time.Now()
		res, err := s.Fabric.FetchWaitInto(identity, q.Topic, q.Partition, q.Offset, q.MaxEvents, q.MaxBytes, wait, stop, nil)
		if err != nil {
			return nil, nil, err
		}
		resp := &FetchResp{
			NumEvents:     len(res.Events),
			HighWatermark: res.HighWatermark,
			StartOffset:   res.StartOffset,
		}
		resp.SetOffsets(res.Events)
		s.met().fetchNs.Observe(int64(time.Since(t0)))
		return resp, res.Events, nil
	case *EndOffsetReq:
		off, err := s.Fabric.EndOffset(q.Topic, q.Partition)
		if err != nil {
			return nil, nil, err
		}
		return &OffsetResp{Offset: off}, nil, nil
	case *StartOffsetReq:
		off, err := s.Fabric.StartOffset(q.Topic, q.Partition)
		if err != nil {
			return nil, nil, err
		}
		return &OffsetResp{Offset: off}, nil, nil
	case *OffsetForTimeReq:
		off, err := s.Fabric.OffsetForTime(q.Topic, q.Partition, time.Unix(0, q.TimeNano))
		if err != nil {
			return nil, nil, err
		}
		return &OffsetResp{Offset: off}, nil, nil
	case *TopicMetaReq:
		meta, err := s.Fabric.Ctl.Topic(q.Topic)
		if err != nil {
			return nil, nil, err
		}
		return &TopicMetaResp{Meta: meta}, nil, nil
	case *JoinGroupReq:
		asn, err := s.Fabric.Groups.Join(q.Group, q.Member, q.Topics)
		if err != nil {
			return nil, nil, err
		}
		return &JoinGroupResp{Generation: asn.Generation, Partitions: asn.Partitions}, nil, nil
	case *LeaveGroupReq:
		s.Fabric.Groups.Leave(q.Group, q.Member)
		return &EmptyResp{}, nil, nil
	case *HeartbeatReq:
		gen, err := s.Fabric.Groups.Heartbeat(q.Group, q.Member)
		if err != nil {
			return nil, nil, err
		}
		return &HeartbeatResp{Generation: gen}, nil, nil
	case *CommitReq:
		err := s.Fabric.Groups.Commit(q.Group, q.Member, q.Generation, q.Topic, q.Partition, q.Offset)
		if err != nil {
			return nil, nil, err
		}
		return &EmptyResp{}, nil, nil
	case *CommittedReq:
		off := s.Fabric.Groups.Committed(q.Group, q.Topic, q.Partition)
		return &OffsetResp{Offset: off}, nil, nil
	case *ReplicaFetchReq:
		// leaderCheck doubles as coarse fencing: a follower pulling from
		// a deposed leader's server is told to re-route before the
		// epoch check even runs.
		if err := s.leaderCheck(q.Topic, q.Partition); err != nil {
			return nil, nil, err
		}
		wait := time.Duration(q.WaitMaxMS) * time.Millisecond
		if wait > MaxFetchWait {
			wait = MaxFetchWait
		}
		res, err := s.Fabric.ReplicaFetch(q.Follower, q.Topic, q.Partition, q.LeaderEpoch, q.Offset, q.MaxEvents, q.MaxBytes, wait, stop, nil)
		if err != nil {
			return nil, nil, err
		}
		resp := &ReplicaFetchResp{
			NumEvents:     len(res.Events),
			LeaderEpoch:   res.LeaderEpoch,
			HighWatermark: res.HighWatermark,
			LogStart:      res.LogStart,
			LogEnd:        res.LogEnd,
		}
		resp.SetOffsets(res.Events)
		return resp, res.Events, nil
	}
	return nil, nil, fmt.Errorf("%w %T", errUnknownOp, m)
}
