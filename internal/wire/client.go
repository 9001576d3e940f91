package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/event"
)

// ErrConnClosed reports a request that failed because Close was called.
// Close completes every pending correlation entry with it, so callers
// blocked on in-flight requests return promptly instead of hanging on a
// connection that will never deliver. It is distinct from transport
// errors: the client never reconnects after an explicit Close.
var ErrConnClosed = errors.New("wire: client closed")

// Options configures DialOptions.
type Options struct {
	// AccessKeyID/Secret authenticate the connection; ignored when
	// Anonymous is set.
	AccessKeyID string
	Secret      string
	// Anonymous connects without credentials (servers with
	// AllowAnonymous only).
	Anonymous bool
	// PoolSize is the number of TCP connections the client spreads load
	// over (default 2). Requests for the same topic-partition always use
	// the same connection, preserving per-partition ordering; requests
	// for different partitions pipeline on independent connections.
	PoolSize int
	// MaxVersion caps the protocol version negotiated at connection open
	// (default MaxProtocol). Setting it to ProtocolV1 skips negotiation
	// entirely, reproducing a legacy client.
	MaxVersion int
	// DisableStreaming masks FeatStreamFetch out of negotiation: the
	// client consumes via pipelined request/response fetch even against
	// streaming-capable servers. Used by interop tests and same-run
	// benchmark baselines.
	DisableStreaming bool
	// DisableClusterMeta masks FeatClusterMeta out of negotiation: the
	// client never fetches cluster metadata and routes every request
	// to its seed address with slot hashing — the pre-cluster
	// behavior. Used by interop tests and single-listener baselines.
	DisableClusterMeta bool
	// StreamWindowBytes, when > 0, adds a byte-denominated window to
	// streaming-fetch sessions: besides the event-credit window, the
	// server stops pushing once this many un-granted payload bytes are
	// outstanding, so a stalled reader's server-side buffering is
	// bounded in bytes even when event sizes vary wildly. Zero keeps
	// the event-credit-only semantics. Multiplexed fetch sessions use
	// it as the session's shared byte window (zero = server default).
	StreamWindowBytes int
	// DisableSessionFetch masks FeatSessionFetch out of negotiation:
	// the client consumes via per-partition streams (or plain fetch)
	// even against session-capable servers. Used by interop tests and
	// same-run benchmark baselines.
	DisableSessionFetch bool
	// DisableMetaPush masks FeatMetaPush out of negotiation: the
	// client never receives pushed metadata and re-routes reactively
	// after a misrouted request, the pre-push behavior. Used by interop
	// and failover tests.
	DisableMetaPush bool
	// DisableReplication masks FeatReplication out of negotiation: the
	// client never issues replica fetches. Used by interop tests
	// to prove a mixed-version cluster degrades to single-replica
	// operation instead of wedging.
	DisableReplication bool
	// DisableStats masks FeatStats out of negotiation: the client never
	// requests observability snapshots, emulating a client that predates
	// them. Used by interop tests.
	DisableStats bool
}

// features is the feature set this client offers in negotiation.
func (o *Options) features() uint32 {
	feats := allFeatures
	if o.DisableStreaming {
		feats &^= FeatStreamFetch
	}
	if o.DisableClusterMeta {
		feats &^= FeatClusterMeta
	}
	if o.DisableSessionFetch {
		feats &^= FeatSessionFetch
	}
	if o.DisableMetaPush {
		feats &^= FeatMetaPush
	}
	if o.DisableReplication {
		feats &^= FeatReplication
	}
	if o.DisableStats {
		feats &^= FeatStats
	}
	return feats
}

func (o *Options) fill() {
	if o.PoolSize <= 0 {
		o.PoolSize = 2
	}
	if o.MaxVersion <= 0 || o.MaxVersion > MaxProtocol {
		o.MaxVersion = MaxProtocol
	}
	if o.StreamWindowBytes > maxStreamCreditBytes {
		// Clamp to the server's own bound: asking for more would leave
		// the grant threshold (half the requested window) beyond what
		// the server will ever push, stalling the stream permanently.
		o.StreamWindowBytes = maxStreamCreditBytes
	}
}

// Client is a client.Transport over the wire protocol: SDK producers
// and consumers built on it run against a remote fabric unchanged. Its
// methods are typed per operation; on a v2 connection each call is one
// binary header, on a v1 connection the same message transparently
// travels as the legacy JSON header (see Options.MaxVersion).
//
// The transport is pipelined: each request carries a correlation ID, a
// writer goroutine streams frames onto the connection (coalescing
// queued frames into one write), and a reader goroutine dispatches
// responses to their waiting callers by correlation ID. Many requests
// from many goroutines are therefore in flight at once. On top of
// that, the client keeps a small connection pool per broker endpoint
// with per-partition affinity: requests for the same topic-partition
// always share one connection (preserving ordering), while other
// partitions proceed on their own connections.
//
// When the seed connection negotiates FeatClusterMeta, the client is a
// metadata-driven router (router.go): it learns every broker's
// advertised address and each partition's leader from OpMetadata,
// dials partition leaders directly, and on ErrNotLeader or a broker
// connection failure re-fetches metadata and re-routes. Without the
// feature every request goes to the seed address — the single-listener
// behavior.
type Client struct {
	// seed is the bootstrap address: the one the caller dialed, which
	// also carries control-plane ops and every request the router
	// cannot place.
	seed string
	opts Options

	mu sync.Mutex
	// eps are the per-address connection pools, created lazily as the
	// router resolves leaders. Single-listener clients only ever hold
	// the seed entry.
	eps    map[string]*endpoint
	closed bool

	// rt is the cluster routing table (router.go).
	rt clusterRouter
	// prodRR round-robins unkeyed events across partitions when the
	// client pre-partitions batches for leader-direct produce.
	prodRR atomic.Uint64
}

// endpoint is one broker address's connection pool.
type endpoint struct {
	addr string
	// slots are the pool's connections, dialed lazily; the seed's
	// slot 0 carries control-plane ops and is established at Dial time
	// so credential errors surface immediately.
	slots []*wireConn
	// slotMu serializes (re)dials per slot, so the dial + handshake of
	// one connection never blocks requests riding other, healthy pool
	// connections (c.mu is held only for the map-in/map-out).
	slotMu []sync.Mutex
}

// call is one in-flight request: a correlation entry plus the caller's
// completion channel.
type call struct {
	// op is the expected v2 response op (the request's op byte).
	op uint8
	// req is the typed request; the writer encodes it as a v2 binary
	// header or, on a v1 connection, via its JSON conversion.
	req ReqMsg
	// rawV1, when set, bypasses req entirely and is sent as a v1 JSON
	// header regardless of the connection version — the negotiate
	// handshake itself, which must be readable by servers of any vintage.
	rawV1   *Request
	corr    uint64
	payload []byte
	// inflight counts the writer's hold on payload: the writer may
	// borrow it into a vectored write (see frameVec), so it stays
	// immutable until the writer releases it — after its bytes left,
	// or when the call was dropped unwritten. A call can complete
	// earlier (fail fans out to pending calls while a write is still in
	// flight); do waits for the release before returning.
	inflight sync.WaitGroup
	// arena, when non-nil, is the caller's receive buffer: the reader
	// goroutine reads the response payload into it (growing as needed),
	// which is what makes the consumer's fetch session reuse work over
	// the wire.
	arena []byte
	// oneway marks a request with no response (stream credit grants and
	// closes): the writer completes it right after its bytes leave,
	// without registering a pending correlation entry.
	oneway bool
	// resp is the typed response target, decoded from the v2 body or
	// filled from the v1 header; nil discards the body.
	resp respMsg
	// v1resp keeps the raw v1 header (negotiation reads Version/Features
	// from it).
	v1resp Response
	data   []byte
	// srvErr is a server-reported error, reconstructed as its domain
	// sentinel; err is a transport or codec failure.
	srvErr error
	err    error
	done   chan struct{}
}

// wireConn is one TCP connection with its pipelining state. A failed
// wireConn is never revived; reconnection replaces it wholesale, and
// every pending or queued call on the failed connection is completed
// with the connection's error (the fan-out the SDK retry loop needs).
type wireConn struct {
	conn net.Conn
	// rd buffers reads: pipelined responses arrive many frames per TCP
	// segment, and the frame format needs several small reads per frame.
	// Only the reader goroutine touches it.
	rd *bufio.Reader
	// hdrBuf is the reader's reusable header scratch buffer.
	hdrBuf []byte

	mu   sync.Mutex
	cond *sync.Cond // signaled on queue push and on failure
	// version is the negotiated protocol version. It starts at v1 and is
	// bumped at most once, by the reader as it decodes the negotiate
	// response — before it reads the next frame, which the server may
	// already send in v2 framing — and before any caller requests are
	// admitted.
	version  int
	features uint32
	// queue holds calls accepted but not yet written; the writer drains
	// it in FIFO order. Unbounded: depth is naturally limited by the
	// number of callers blocked awaiting responses.
	queue []*call
	// pending holds written calls awaiting responses, by correlation ID.
	// A call is registered here by the writer immediately before its
	// frame hits the connection, so entries always refer to requests the
	// server may answer.
	pending  map[uint64]*call
	nextCorr uint64
	err      error // sticky: first failure wins
	// done is closed by fail (after err is set): stream consumers and
	// long-poll waiters park on it instead of polling the sticky error.
	done chan struct{}

	// Stream sessions (FeatStreamFetch), keyed both by the server-facing
	// stream ID (reader dispatch) and by topic-partition (fetch lookup).
	streamMu     sync.Mutex
	streamsByID  map[uint64]*clientStream
	streamsByTP  map[streamKey]*clientStream
	nextStreamID uint64
	// noStreams latches when the server refuses a stream open despite
	// negotiation, pinning this connection to request/response fetch.
	noStreams bool

	// Multiplexed fetch session (FeatSessionFetch): at most one per
	// connection, multiplexing every subscribed topic-partition over a
	// single shared credit window (sessionclient.go). sessOpenMu
	// serializes session opens (never held while the reader needs
	// sessMu); sessMu guards the pointer and the noSessions latch.
	sessOpenMu sync.Mutex
	sessMu     sync.Mutex
	session    *clientSession
	nextSessID uint64
	// noSessions latches when the server refuses a session open despite
	// negotiation, falling back to per-partition streams.
	noSessions bool

	// onMetaPush, set before the reader starts, adopts server-pushed
	// metadata documents (FeatMetaPush) into the client's routing table.
	onMetaPush func(*MetadataResp)
}

// Dial connects and authenticates with an access key/secret.
func Dial(addr, accessKeyID, secret string) (*Client, error) {
	return DialOptions(addr, Options{AccessKeyID: accessKeyID, Secret: secret})
}

// DialAnonymous connects without credentials (servers with
// AllowAnonymous only).
func DialAnonymous(addr string) (*Client, error) {
	return DialOptions(addr, Options{Anonymous: true})
}

// DialOptions connects with explicit pool and protocol options.
func DialOptions(addr string, o Options) (*Client, error) {
	o.fill()
	c := &Client{seed: addr, opts: o, eps: make(map[string]*endpoint)}
	// Establish the seed's slot 0 eagerly so bad credentials or an
	// unreachable server surface at dial time.
	wc, err := c.connAt(addr, 0)
	if err != nil {
		return nil, err
	}
	// When the server offered cluster metadata, bootstrap the routing
	// table now: from here on, data-plane requests dial partition
	// leaders directly.
	if wc.featuresNow()&FeatClusterMeta != 0 {
		_ = c.refreshMetadata() // failure leaves the router disabled: seed-only routing
	}
	return c, nil
}

// ProtocolVersion reports the protocol version negotiated with the
// server (ProtocolV1 for legacy peers), or 0 before any connection is
// established.
func (c *Client) ProtocolVersion() int {
	if wc := c.seedConn(); wc != nil {
		wc.mu.Lock()
		defer wc.mu.Unlock()
		return wc.version
	}
	return 0
}

// Features reports the feature bitmask negotiated with the server (0
// for v1 peers or before any connection is established).
func (c *Client) Features() uint32 {
	if wc := c.seedConn(); wc != nil {
		return wc.featuresNow()
	}
	return 0
}

// seedConn returns a live connection for version/feature probes: the
// seed endpoint's when one is established, else any endpoint's — after
// the seed broker dies, the client keeps serving through other
// brokers, and its negotiated version must not read as 0.
func (c *Client) seedConn() *wireConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ep := c.eps[c.seed]; ep != nil {
		for _, wc := range ep.slots {
			if wc != nil {
				return wc
			}
		}
	}
	for _, ep := range c.eps {
		for _, wc := range ep.slots {
			if wc != nil {
				return wc
			}
		}
	}
	return nil
}

// featuresNow snapshots the connection's negotiated feature set.
func (wc *wireConn) featuresNow() uint32 {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.features
}

// slotFor maps a topic-partition to its pool connection. Key-routed
// produces (partition < 0) hash the topic alone, so all of a topic's
// key-routed traffic shares one connection and per-key ordering holds.
// Reads only the immutable pool size, so it needs no lock.
func (c *Client) slotFor(topic string, partition int) int {
	n := c.opts.PoolSize
	if n == 1 || topic == "" {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(topic); i++ {
		h ^= uint32(topic[i])
		h *= 16777619
	}
	if partition >= 0 {
		h ^= uint32(partition)
		h *= 16777619
	}
	return int(h % uint32(n))
}

// endpoint returns (creating if needed) the connection pool for addr.
func (c *Client) endpoint(addr string) (*endpoint, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrConnClosed
	}
	ep := c.eps[addr]
	if ep == nil {
		ep = &endpoint{
			addr:   addr,
			slots:  make([]*wireConn, c.opts.PoolSize),
			slotMu: make([]sync.Mutex, c.opts.PoolSize),
		}
		c.eps[addr] = ep
	}
	return ep, nil
}

// connAt returns slot i of addr's pool, dialing if there is none.
func (c *Client) connAt(addr string, i int) (*wireConn, error) {
	ep, err := c.endpoint(addr)
	if err != nil {
		return nil, err
	}
	ep.slotMu[i].Lock()
	defer ep.slotMu[i].Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrConnClosed
	}
	if wc := ep.slots[i]; wc != nil {
		c.mu.Unlock()
		return wc, nil
	}
	c.mu.Unlock()
	return c.installConn(ep, i)
}

// reconnectAt replaces slot i of addr's pool, unless another caller
// already has.
func (c *Client) reconnectAt(addr string, i int, old *wireConn) (*wireConn, error) {
	ep, err := c.endpoint(addr)
	if err != nil {
		return nil, err
	}
	ep.slotMu[i].Lock()
	defer ep.slotMu[i].Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrConnClosed
	}
	if ep.slots[i] != nil && ep.slots[i] != old {
		wc := ep.slots[i]
		c.mu.Unlock()
		return wc, nil
	}
	ep.slots[i] = nil
	c.mu.Unlock()
	return c.installConn(ep, i)
}

// installConn dials a fresh connection and publishes it as slot i of
// the endpoint. Callers hold ep.slotMu[i] (but not c.mu, so other
// slots and endpoints keep flowing during the dial and handshake round
// trips).
func (c *Client) installConn(ep *endpoint, i int) (*wireConn, error) {
	wc, err := c.connect(ep.addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		wc.fail(ErrConnClosed)
		return nil, ErrConnClosed
	}
	ep.slots[i] = wc
	c.mu.Unlock()
	return wc, nil
}

// connect dials addr and opens a client connection over it. It touches
// only immutable client state, so no lock is held across the network
// round trips.
func (c *Client) connect(addr string) (*wireConn, error) {
	conn, err := net.DialTimeout("tcp", addr, IOTimeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return c.open(conn)
}

// open starts the writer/reader goroutines on conn, negotiates the
// protocol version, and authenticates.
func (c *Client) open(conn net.Conn) (*wireConn, error) {
	// Pushed metadata re-routes before a request fails: adopt the
	// document synchronously on the reader (adoptMetadata never blocks
	// on network I/O) so the table is fresh before the next frame.
	wc := newWireConn(conn, c.adoptMetadata)

	// Version handshake, always in v1 framing: a server that predates
	// negotiation answers with an "unknown op" (or not-authenticated)
	// error, which means "speak v1". The reader adopts the negotiated
	// framing itself (see readLoop).
	if c.opts.MaxVersion >= ProtocolV2 {
		ncl := &call{
			rawV1: &Request{Op: OpNegotiate, MaxVersion: c.opts.MaxVersion, Features: c.opts.features()},
			done:  make(chan struct{}),
		}
		if err := wc.do(ncl); err != nil {
			wc.fail(err)
			return nil, err
		}
	}

	// Authenticate (or probe, for anonymous connections) in the
	// negotiated framing, so rejection surfaces at dial time.
	var hcl *call
	if c.opts.Anonymous {
		hcl = &call{op: v2OpPing, req: &PingReq{}, resp: &EmptyResp{}, done: make(chan struct{})}
	} else {
		hcl = &call{
			op:   v2OpAuth,
			req:  &AuthReq{AccessKeyID: c.opts.AccessKeyID, Secret: c.opts.Secret},
			resp: &AuthResp{}, done: make(chan struct{}),
		}
	}
	err := wc.do(hcl)
	if err == nil {
		err = hcl.srvErr
	}
	if err != nil {
		wc.fail(err)
		return nil, err
	}
	return wc, nil
}

// newWireConn wraps conn in v1 framing and starts its writer and
// reader goroutines.
func newWireConn(conn net.Conn, onMetaPush func(*MetadataResp)) *wireConn {
	wc := &wireConn{
		conn:       conn,
		rd:         bufio.NewReaderSize(conn, 64<<10),
		version:    ProtocolV1,
		pending:    make(map[uint64]*call),
		done:       make(chan struct{}),
		onMetaPush: onMetaPush,
	}
	wc.cond = sync.NewCond(&wc.mu)
	go wc.writeLoop()
	go wc.readLoop()
	return wc
}

// Close shuts every pool connection on every endpoint, failing all
// pending requests with ErrConnClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	var conns []*wireConn
	for _, ep := range c.eps {
		for i, wc := range ep.slots {
			if wc != nil {
				conns = append(conns, wc)
				ep.slots[i] = nil
			}
		}
	}
	c.mu.Unlock()
	for _, wc := range conns {
		wc.fail(ErrConnClosed)
	}
	return nil
}

// do submits a prepared call on the connection and blocks for its
// completion, returning any transport/codec error (server-reported
// errors are in cl.srvErr). When it returns, the writer no longer
// holds cl.payload: the caller may reuse it.
func (wc *wireConn) do(cl *call) error {
	wc.mu.Lock()
	if wc.err != nil {
		err := wc.err
		wc.mu.Unlock()
		return err
	}
	wc.nextCorr++
	cl.corr = wc.nextCorr
	if cl.payload != nil {
		cl.inflight.Add(1)
	}
	wc.queue = append(wc.queue, cl)
	wc.cond.Signal()
	wc.mu.Unlock()
	<-cl.done
	cl.inflight.Wait()
	return cl.err
}

// finish completes a call the writer dropped unwritten, releasing its
// payload first.
func (cl *call) finish(err error) {
	cl.release()
	cl.err = err
	close(cl.done)
}

// release ends the writer's hold on the call's payload.
func (cl *call) release() {
	if cl.payload != nil {
		cl.inflight.Done()
	}
}

// sendOneway enqueues a request with no response (stream credit grants
// and closes) without blocking for its write: flow-control traffic must
// never stall the consumer behind the writer.
func (wc *wireConn) sendOneway(req ReqMsg) error {
	cl := &call{op: req.V2Op(), req: req, oneway: true, done: make(chan struct{})}
	wc.mu.Lock()
	if wc.err != nil {
		err := wc.err
		wc.mu.Unlock()
		return err
	}
	wc.nextCorr++
	cl.corr = wc.nextCorr
	wc.queue = append(wc.queue, cl)
	wc.cond.Signal()
	wc.mu.Unlock()
	return nil
}

// fail marks the connection broken and fans the error out to every
// pending caller. Queued-but-unwritten calls are completed by the writer
// on its way out (it is the only goroutine that touches their payloads).
// Idempotent: the first error wins.
func (wc *wireConn) fail(err error) {
	wc.mu.Lock()
	if wc.err != nil {
		wc.mu.Unlock()
		return
	}
	wc.err = err
	pending := wc.pending
	wc.pending = make(map[uint64]*call)
	wc.cond.Broadcast()
	// err is visible before done closes: stream consumers woken by done
	// always observe the sticky error.
	close(wc.done)
	wc.mu.Unlock()
	wc.conn.Close()
	for _, cl := range pending {
		cl.err = err
		close(cl.done)
	}
}

// appendCallFrame encodes one request frame in the connection's
// negotiated framing, borrowing a large payload. The negotiate
// handshake (rawV1) always travels as v1 JSON.
func appendCallFrame(v *frameVec, version int, cl *call) error {
	if cl.rawV1 != nil || version < ProtocolV2 {
		r := cl.rawV1
		if r == nil {
			r = cl.req.v1()
		}
		r.Corr = cl.corr
		return v.appendV1(r, cl.payload, nil)
	}
	return v.appendRequestV2(cl.corr, cl.req, cl.payload)
}

// writeLoop drains the queue, encoding every waiting frame into one
// frameVec and writing them with a single vectored syscall — pipelined
// requests coalesce on the wire, and produce payloads of at least
// borrowMin bytes go out without a copy. Each call is registered in
// pending just before its bytes are written, so a response can never
// arrive for an unregistered correlation ID; each call's payload is
// released once the write that carried it returned.
func (wc *wireConn) writeLoop() {
	var v frameVec
	var batch, written []*call
	for {
		wc.mu.Lock()
		for len(wc.queue) == 0 && wc.err == nil {
			wc.cond.Wait()
		}
		if wc.err != nil {
			q := wc.queue
			wc.queue = nil
			err := wc.err
			wc.mu.Unlock()
			for _, cl := range q {
				cl.finish(err)
			}
			return
		}
		batch = append(batch[:0], wc.queue...)
		wc.queue = wc.queue[:0]
		version := wc.version
		wc.mu.Unlock()

		written = written[:0]
		for _, cl := range batch {
			if err := appendCallFrame(&v, version, cl); err != nil {
				// Frame-level error (oversized, unmarshalable header):
				// fail this call alone, the connection is fine. The
				// encoder rolled the frame back.
				cl.finish(err)
				continue
			}
			written = append(written, cl)
		}
		clear(batch)
		if len(written) == 0 {
			continue
		}
		wc.mu.Lock()
		if wc.err != nil {
			// The connection died between dequeue and write; nothing was
			// sent for these calls, so complete them here.
			err := wc.err
			wc.mu.Unlock()
			v.reset()
			for _, cl := range written {
				cl.finish(err)
			}
			return
		}
		expectResp := false
		for _, cl := range written {
			if cl.oneway {
				continue
			}
			wc.pending[cl.corr] = cl
			expectResp = true
		}
		// A response must arrive within IOTimeout of the last write —
		// unless everything written was one-way (credit grants on an
		// otherwise idle stream connection), where no response is owed
		// and an armed read deadline would kill a healthy idle link.
		_ = wc.conn.SetWriteDeadline(time.Now().Add(IOTimeout))
		if expectResp {
			_ = wc.conn.SetReadDeadline(time.Now().Add(IOTimeout))
		}
		wc.mu.Unlock()
		werr := v.writeTo(wc.conn)
		v.reset()
		for _, cl := range written {
			cl.release()
			// One-way calls complete at write time, success or failure;
			// they are never in pending, so fail() cannot reach them.
			if cl.oneway {
				cl.err = werr
				close(cl.done)
			}
		}
		clear(written)
		if werr != nil {
			wc.fail(werr)
			// Loop back: the top of the loop drains remaining queued
			// calls with the failure.
		}
	}
}

// readLoop reads response frames and dispatches them to pending calls
// by correlation ID, decoding the typed (or JSON) header and reading
// each payload directly into the matched caller's receive buffer when
// one was provided. The framing version is checked per frame: the
// handshake flips it between the negotiate response (v1) and the first
// v2 response.
func (wc *wireConn) readLoop() {
	for {
		hb, err := readHeaderInto(wc.rd, &wc.hdrBuf)
		if err != nil {
			wc.fail(err)
			return
		}
		wc.mu.Lock()
		v2 := wc.version >= ProtocolV2
		wc.mu.Unlock()

		var corr uint64
		var op, code uint8
		var body []byte
		var v1resp Response
		if v2 {
			if op, code, corr, body, err = decodeRespPrefixV2(hb); err != nil {
				wc.fail(err)
				return
			}
			if op == v2OpStreamBatch || op == v2OpStreamClose {
				// Server-pushed stream frame: corr is the stream ID, not a
				// pending correlation entry. Routed straight to the stream's
				// frame queue (payload included); never touches pending.
				if err := wc.handleStreamPush(op, code, corr, body); err != nil {
					wc.fail(err)
					return
				}
				continue
			}
			if op == v2OpSessionBatch || op == v2OpSessionClose {
				// Server-pushed session frame: corr packs session and sub
				// IDs (payload included); never touches pending.
				if err := wc.handleSessionPush(op, code, corr, body); err != nil {
					wc.fail(err)
					return
				}
				continue
			}
			if op == v2OpMetadataPush {
				// Server-pushed cluster metadata (FeatMetaPush): adopt the
				// fresh routing table so the next request already targets
				// the new leaders.
				var md *MetadataResp
				if code == codeOK {
					md = &MetadataResp{}
					if err := md.DecodeBody(body); err != nil {
						wc.fail(err)
						return
					}
				}
				if _, err := ReadPayloadInto(wc.rd, nil); err != nil {
					wc.fail(err)
					return
				}
				if md != nil && wc.onMetaPush != nil {
					wc.onMetaPush(md)
				}
				continue
			}
		} else {
			if err := json.Unmarshal(hb, &v1resp); err != nil {
				wc.fail(fmt.Errorf("wire: bad header: %w", err))
				return
			}
			corr = v1resp.Corr
		}

		wc.mu.Lock()
		cl := wc.pending[corr]
		delete(wc.pending, corr)
		wc.mu.Unlock()

		// Decode the header into the matched call before hdrBuf is
		// reused by the next frame. Decode errors complete only this
		// call; the connection framing is still intact.
		if cl != nil {
			if v2 {
				switch {
				case code != codeOK:
					if detail, _, derr := getStr(body); derr != nil {
						cl.err = derr
					} else {
						cl.srvErr = errFromCode(code, detail)
					}
				case op != cl.op:
					cl.err = fmt.Errorf("wire: response op %d for request op %d", op, cl.op)
				case cl.resp != nil:
					cl.err = cl.resp.DecodeBody(body)
				}
			} else {
				cl.v1resp = v1resp
				switch {
				case v1resp.Err != "":
					cl.srvErr = errFromKind(v1resp.ErrKind, v1resp.Err)
				case cl.rawV1 != nil && cl.rawV1.Op == OpNegotiate && v1resp.Version >= ProtocolV2:
					// Adopt v2 framing here, before the next frame is read:
					// the server switches right after this response and may
					// push metadata (FeatMetaPush) before the dialer wakes.
					wc.mu.Lock()
					wc.version = ProtocolV2
					wc.features = v1resp.Features & cl.rawV1.Features
					wc.mu.Unlock()
				case cl.resp != nil:
					cl.resp.fromV1(&cl.v1resp)
				}
			}
		}

		var arena []byte
		if cl != nil {
			arena = cl.arena
		}
		data, err := ReadPayloadInto(wc.rd, arena)
		if err != nil {
			// cl is already out of the pending map, so fail() cannot
			// reach it — complete it here or its caller hangs.
			if cl != nil {
				cl.err = err
				close(cl.done)
			}
			wc.fail(err)
			return
		}
		wc.mu.Lock()
		if len(wc.pending) == 0 {
			// Idle: don't let the last exchange's deadline kill the
			// connection while nothing is outstanding.
			_ = wc.conn.SetReadDeadline(time.Time{})
		} else if wc.rd.Buffered() == 0 {
			// Deadline syscalls only when the next frame isn't already
			// buffered — at full pipeline depth responses arrive many per
			// read, and per-frame deadline churn costs real throughput.
			_ = wc.conn.SetReadDeadline(time.Now().Add(IOTimeout))
		}
		wc.mu.Unlock()
		if cap(wc.hdrBuf) > maxPooledFrame {
			// One giant v1 offsets header must not pin its buffer.
			wc.hdrBuf = nil
		}
		if cl != nil {
			cl.data = data
			if data != nil {
				cl.arena = data
			}
			close(cl.done)
		}
	}
}

// callAt submits a typed request on the addressed endpoint's
// partition-affine connection, waits for its response, and retries
// once over a fresh connection to the same address on transport
// failure — the router (router.go) and the SDK's retry loop handle
// persistent failure and re-routing. The returned error is either a
// transport error or the server's reconstructed domain sentinel.
func (c *Client) callAt(addr string, slot int, req ReqMsg, resp respMsg, payload, arena []byte) (*call, error) {
	wc, err := c.connAt(addr, slot)
	if err != nil {
		return nil, err
	}
	cl := &call{op: req.V2Op(), req: req, resp: resp, payload: payload, arena: arena, done: make(chan struct{})}
	derr := wc.do(cl)
	if derr == nil {
		return cl, cl.srvErr
	}
	if errors.Is(derr, ErrConnClosed) {
		return nil, derr
	}
	wc.mu.Lock()
	alive := wc.err == nil
	wc.mu.Unlock()
	if alive {
		// Call-local failure (oversized frame, codec error): the
		// connection is fine and a retry would fail identically.
		return nil, derr
	}
	wc2, rerr := c.reconnectAt(addr, slot, wc)
	if rerr != nil {
		return nil, derr
	}
	cl2 := &call{op: req.V2Op(), req: req, resp: resp, payload: payload, arena: cl.arena, done: make(chan struct{})}
	if derr := wc2.do(cl2); derr != nil {
		return nil, derr
	}
	return cl2, cl2.srvErr
}

// producePool recycles produce payload buffers. The writer may send a
// payload by reference (frameVec), so a buffer goes back only once the
// call that carried it returned from wireConn.do — which waits for the
// writer's release, not merely for the call's completion.
var producePool = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

// Produce implements client.Transport. identity is established by the
// connection's credentials; the parameter is ignored.
//
// With the router active, a per-event-routed batch (partition < 0) is
// pre-partitioned client-side — keyed events through the fabric's own
// FNV-1a partitioner, unkeyed events round-robin — and each bucket is
// produced directly against its partition's leader. Without the
// router the whole batch travels to the seed address, which routes per
// event exactly as before.
func (c *Client) Produce(_ string, topic string, partition int, evs []event.Event, acks broker.Acks) (int64, error) {
	if partition < 0 && c.RouterEnabled() {
		if parts, ok := c.produceParts(topic); ok && parts > 0 {
			return c.producePartitioned(topic, parts, evs, acks)
		}
	}
	return c.produceTo(topic, partition, evs, acks)
}

// produceTo produces one batch to a single partition (or, when
// partition < 0, to the seed's per-event router).
func (c *Client) produceTo(topic string, partition int, evs []event.Event, acks broker.Acks) (int64, error) {
	req := ProduceReq{Topic: topic, Partition: partition, Acks: int(acks), NumEvents: len(evs)}
	var resp ProduceResp
	bp := producePool.Get().(*[]byte)
	payload := event.AppendBatchMarshal((*bp)[:0], evs)
	_, err := c.dataCall(topic, partition, &req, &resp, payload, nil)
	if cap(payload) <= maxPooledFrame {
		*bp = payload[:0]
		producePool.Put(bp)
	}
	if err != nil {
		return 0, err
	}
	return resp.Offset, nil
}

// producePartitioned buckets a per-event-routed batch by partition and
// produces every bucket concurrently against its leader. The returned
// offset is the first bucket's base offset, matching the fabric's
// Produce contract for multi-partition batches.
func (c *Client) producePartitioned(topic string, parts int, evs []event.Event, acks broker.Acks) (int64, error) {
	if parts == 1 || len(evs) == 0 {
		return c.produceTo(topic, 0, evs, acks)
	}
	buckets := make([][]event.Event, parts)
	order := make([]int, 0, parts)
	for i := range evs {
		var p int
		if len(evs[i].Key) > 0 {
			p = broker.PartitionForKey(evs[i].Key, parts)
		} else {
			p = int(c.prodRR.Add(1) % uint64(parts))
		}
		if buckets[p] == nil {
			order = append(order, p)
		}
		buckets[p] = append(buckets[p], evs[i])
	}
	if len(order) == 1 {
		return c.produceTo(topic, order[0], buckets[order[0]], acks)
	}
	offs := make([]int64, len(order))
	errs := make([]error, len(order))
	var wg sync.WaitGroup
	for i, p := range order {
		wg.Add(1)
		go func(i, p int) {
			defer wg.Done()
			offs[i], errs[i] = c.produceTo(topic, p, buckets[p], acks)
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return offs[0], nil
}

// Fetch implements client.Transport.
func (c *Client) Fetch(_ string, topic string, partition int, offset int64, maxEvents, maxBytes int) (broker.FetchResult, error) {
	req := FetchReq{Topic: topic, Partition: partition, Offset: offset, MaxEvents: maxEvents, MaxBytes: maxBytes}
	var resp FetchResp
	cl, err := c.dataCall(topic, partition, &req, &resp, nil, nil)
	if err != nil {
		return broker.FetchResult{}, err
	}
	evs, err := DecodeEvents(cl.data, resp.NumEvents)
	if err != nil {
		return broker.FetchResult{}, err
	}
	resp.Stamp(evs, topic, partition)
	return broker.FetchResult{Events: evs, HighWatermark: resp.HighWatermark, StartOffset: resp.StartOffset}, nil
}

// FetchBuffered implements the SDK consumer's buffered-fetch extension
// (client.BufferedFetcher). When the connection negotiated
// FeatStreamFetch, the call is served from a per-partition stream the
// server pushes into — zero request round trips at steady state; see
// streamclient.go. Otherwise (v1 peers, stream-disabled servers) the
// response payload is read directly into buf.Arena by the reader
// goroutine and decoded into buf.Events, so a steady-state poll reuses
// one receive buffer instead of allocating a frame and an event slice
// per fetch. Either way, returned events are valid until the next
// fetch on this topic-partition.
func (c *Client) FetchBuffered(_ string, topic string, partition int, offset int64, maxEvents, maxBytes int, buf *broker.FetchBuffer) (broker.FetchResult, error) {
	return c.fetchBuffered(topic, partition, offset, maxEvents, maxBytes, 0, buf)
}

// FetchBufferedWait implements the SDK's long-poll extension
// (client.WaitFetcher): an empty fetch blocks up to wait for data. On a
// stream connection the wait parks on the local frame queue; on the
// request/response path it rides FetchReq.WaitMaxMS to the server's
// tail waiter. Either way an idle consumer stops hot-looping.
func (c *Client) FetchBufferedWait(_ string, topic string, partition int, offset int64, maxEvents, maxBytes int, wait time.Duration, buf *broker.FetchBuffer) (broker.FetchResult, error) {
	return c.fetchBuffered(topic, partition, offset, maxEvents, maxBytes, wait, buf)
}

func (c *Client) fetchBuffered(topic string, partition int, offset int64, maxEvents, maxBytes int, wait time.Duration, buf *broker.FetchBuffer) (broker.FetchResult, error) {
	res, err := c.fetchBufferedAt(c.dataAddr(topic, partition), topic, partition, offset, maxEvents, maxBytes, wait, buf)
	if err == nil || !c.RouterEnabled() || !rerouteable(err) {
		return res, err
	}
	// The partition's leader moved or its broker connection failed:
	// re-fetch metadata and retry once against the freshly resolved
	// leader. Streaming sessions reopen there at the same offset — the
	// consumer's position, which the new leader serves losslessly
	// because acked events were replicated synchronously.
	if rerr := c.refreshMetadata(); rerr != nil {
		return res, err
	}
	return c.fetchBufferedAt(c.dataAddr(topic, partition), topic, partition, offset, maxEvents, maxBytes, wait, buf)
}

// fetchBufferedAt serves one buffered fetch from the addressed broker:
// through the connection's multiplexed fetch session when it
// negotiated FeatSessionFetch, through a per-partition stream when it
// negotiated streaming, else request/response.
func (c *Client) fetchBufferedAt(addr, topic string, partition int, offset int64, maxEvents, maxBytes int, wait time.Duration, buf *broker.FetchBuffer) (broker.FetchResult, error) {
	slot := c.slotFor(topic, partition)
	wc, err := c.connAt(addr, slot)
	if err != nil {
		return broker.FetchResult{}, err
	}
	if wc.sessionEnabled() {
		res, serr, handled := c.fetchSession(wc, topic, partition, offset, maxEvents, maxBytes, wait)
		if handled {
			if serr != nil && !errors.Is(serr, ErrConnClosed) && wc.errNow() != nil {
				// Transport failure mid-session: one retry over a fresh
				// connection to the same address, as on the stream path.
				wc2, rerr := c.reconnectAt(addr, slot, wc)
				if rerr != nil {
					return broker.FetchResult{}, serr
				}
				if wc2.sessionEnabled() {
					if res2, serr2, handled2 := c.fetchSession(wc2, topic, partition, offset, maxEvents, maxBytes, wait); handled2 {
						return res2, serr2
					}
				}
				return c.plainFetchBuffered(addr, slot, topic, partition, offset, maxEvents, maxBytes, wait, buf)
			}
			return res, serr
		}
	}
	if wc.streamingEnabled() {
		res, serr, handled := c.fetchStream(wc, topic, partition, offset, maxEvents, maxBytes, wait)
		if handled {
			if serr != nil && !errors.Is(serr, ErrConnClosed) && wc.errNow() != nil {
				// Transport failure mid-stream: mirror callAt's single
				// retry over a fresh connection to the same address.
				wc2, rerr := c.reconnectAt(addr, slot, wc)
				if rerr != nil {
					return broker.FetchResult{}, serr
				}
				if wc2.streamingEnabled() {
					if res2, serr2, handled2 := c.fetchStream(wc2, topic, partition, offset, maxEvents, maxBytes, wait); handled2 {
						return res2, serr2
					}
				}
				return c.plainFetchBuffered(addr, slot, topic, partition, offset, maxEvents, maxBytes, wait, buf)
			}
			return res, serr
		}
	}
	return c.plainFetchBuffered(addr, slot, topic, partition, offset, maxEvents, maxBytes, wait, buf)
}

// plainFetchBuffered is the request/response buffered fetch (protocol
// v1 and v2 without streaming).
func (c *Client) plainFetchBuffered(addr string, slot int, topic string, partition int, offset int64, maxEvents, maxBytes int, wait time.Duration, buf *broker.FetchBuffer) (broker.FetchResult, error) {
	req := FetchReq{Topic: topic, Partition: partition, Offset: offset, MaxEvents: maxEvents, MaxBytes: maxBytes, WaitMaxMS: int(wait / time.Millisecond)}
	var resp FetchResp
	cl, err := c.callAt(addr, slot, &req, &resp, nil, buf.Arena[:0])
	if err != nil {
		return broker.FetchResult{}, err
	}
	if cl.arena != nil {
		buf.Arena = cl.arena
	}
	evs, pos, err := event.AppendUnmarshalBatch(buf.Events[:0], cl.data, resp.NumEvents)
	if err != nil {
		return broker.FetchResult{}, fmt.Errorf("wire: %w", err)
	}
	if pos != len(cl.data) {
		return broker.FetchResult{}, fmt.Errorf("wire: %d trailing bytes after %d events", len(cl.data)-pos, resp.NumEvents)
	}
	buf.Events = evs
	resp.Stamp(evs, topic, partition)
	return broker.FetchResult{Events: evs, HighWatermark: resp.HighWatermark, StartOffset: resp.StartOffset}, nil
}

// offsetCall runs a partition-routed request whose response is a
// single offset.
func (c *Client) offsetCall(topic string, partition int, req ReqMsg) (int64, error) {
	var resp OffsetResp
	if _, err := c.dataCall(topic, partition, req, &resp, nil, nil); err != nil {
		return 0, err
	}
	return resp.Offset, nil
}

// EndOffset implements client.Transport.
func (c *Client) EndOffset(topic string, partition int) (int64, error) {
	return c.offsetCall(topic, partition, &EndOffsetReq{Topic: topic, Partition: partition})
}

// StartOffset implements client.Transport.
func (c *Client) StartOffset(topic string, partition int) (int64, error) {
	return c.offsetCall(topic, partition, &StartOffsetReq{Topic: topic, Partition: partition})
}

// OffsetForTime implements client.Transport.
func (c *Client) OffsetForTime(topic string, partition int, t time.Time) (int64, error) {
	return c.offsetCall(topic, partition, &OffsetForTimeReq{Topic: topic, Partition: partition, TimeNano: t.UnixNano()})
}

// TopicMeta implements client.Transport.
func (c *Client) TopicMeta(topic string) (*cluster.TopicMeta, error) {
	req := TopicMetaReq{Topic: topic}
	var resp TopicMetaResp
	if _, err := c.controlCall(&req, &resp); err != nil {
		return nil, err
	}
	return resp.Meta, nil
}

// JoinGroup implements client.Transport.
func (c *Client) JoinGroup(groupID, memberID string, topics []string) (broker.Assignment, error) {
	req := JoinGroupReq{Group: groupID, Member: memberID, Topics: topics}
	var resp JoinGroupResp
	if _, err := c.controlCall(&req, &resp); err != nil {
		return broker.Assignment{}, err
	}
	return broker.Assignment{Generation: resp.Generation, Partitions: resp.Partitions}, nil
}

// LeaveGroup implements client.Transport.
func (c *Client) LeaveGroup(groupID, memberID string) {
	req := LeaveGroupReq{Group: groupID, Member: memberID}
	_, _ = c.controlCall(&req, nil)
}

// Heartbeat implements client.Transport.
func (c *Client) Heartbeat(groupID, memberID string) (int, error) {
	req := HeartbeatReq{Group: groupID, Member: memberID}
	var resp HeartbeatResp
	if _, err := c.controlCall(&req, &resp); err != nil {
		return 0, err
	}
	return resp.Generation, nil
}

// Commit implements client.Transport.
func (c *Client) Commit(groupID, memberID string, generation int, topic string, partition int, offset int64) error {
	req := CommitReq{
		Group: groupID, Member: memberID, Generation: generation,
		Topic: topic, Partition: partition, Offset: offset,
	}
	_, err := c.controlCall(&req, nil)
	return err
}

// Stats fetches an observability snapshot — exported metrics plus the
// produce stage-trace ring — from the control endpoint's broker. It
// fails with an unknown-op error against peers without FeatStats.
func (c *Client) Stats() (*StatsResp, error) {
	var resp StatsResp
	if _, err := c.controlCall(&StatsReq{}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// StatsAt fetches an observability snapshot from one specific broker
// address — per-broker state (histograms, traces) is local to each
// broker, so cluster tooling scrapes every advertised address.
func (c *Client) StatsAt(addr string) (*StatsResp, error) {
	var resp StatsResp
	if _, err := c.callAt(addr, 0, &StatsReq{}, &resp, nil, nil); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Committed implements client.Transport.
func (c *Client) Committed(groupID, topic string, partition int) int64 {
	var resp OffsetResp
	if _, err := c.controlCall(&CommittedReq{Group: groupID, Topic: topic, Partition: partition}, &resp); err != nil {
		return -1
	}
	return resp.Offset
}
