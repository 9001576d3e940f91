// Protocol v2: typed binary message headers.
//
// v2 replaces the JSON Request/Response god-structs with one typed
// message per operation, hand-rolled binary encode/decode (no
// reflection, no per-header allocation on the encode side), negotiated
// at connection open via OpNegotiate (see protocol.go). The frame
// layout is unchanged — u32 headerLen | header | u32 payloadLen |
// payload — only the header bytes differ:
//
//	request header:  u8 op | u64 corr (BE) | message body
//	response header: u8 op | u8 errCode | u64 corr (BE) | body
//
// A response with errCode != 0 carries only the error detail string as
// its body; the error code maps back to the domain sentinel on the
// client so errors.Is works across the wire exactly as on the Direct
// transport. Message bodies use varint/zigzag integers and
// length-prefixed strings. Decoders tolerate trailing body bytes, so a
// future minor revision can append fields without breaking old peers.
//
// Fetch responses encode per-event offsets as a sequence of dense runs
// (start offset + count) instead of v1's per-event JSON array: a
// contiguous read — the overwhelmingly common case — costs two varints
// regardless of batch size, and compaction gaps just add runs.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/auth"
	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/eventlog"
)

// Protocol versions.
const (
	// ProtocolV1 is the seed protocol: JSON headers, no handshake.
	ProtocolV1 = 1
	// ProtocolV2 adds typed binary headers, compact error codes and
	// dense-run fetch offsets behind an OpNegotiate handshake.
	ProtocolV2 = 2
	// MaxProtocol is the newest version this build speaks.
	MaxProtocol = ProtocolV2
)

// Feature bits exchanged during negotiation. FeatDenseOffsets and
// FeatErrCodes are implied by v2 framing; FeatStreamFetch is the first
// genuinely optional capability — either side may mask it out and the
// connection degrades to pipelined request/response fetch.
const (
	// FeatDenseOffsets: fetch responses carry base-offset + dense-run
	// offset encoding instead of a per-event array.
	FeatDenseOffsets uint32 = 1 << 0
	// FeatErrCodes: responses carry compact typed error codes.
	FeatErrCodes uint32 = 1 << 1
	// FeatStreamFetch: the server supports credit-based streaming fetch
	// (OpStreamOpen/OpStreamBatch/OpStreamCredit/OpStreamClose): the
	// client opens a per-partition stream and the server pushes batches
	// proactively as data arrives, flow-controlled by client credit
	// grants — no per-batch request round trip.
	FeatStreamFetch uint32 = 1 << 2
	// FeatClusterMeta: the server answers OpMetadata with the cluster's
	// epoch, broker addresses and per-partition leadership, enabling
	// leader-direct client routing against multi-listener clusters
	// (internal/clusternet). Either side may mask it out; the client
	// then falls back to single-address slot hashing.
	FeatClusterMeta uint32 = 1 << 3
	// FeatSessionFetch: the server supports multiplexed fetch sessions
	// (OpSessionOpen/OpSessionSub/OpSessionBatch/OpSessionCredit/
	// OpSessionClose): one session per connection subscribes to many
	// topic-partitions, served by a single server pump goroutine under
	// one shared byte-credit window — connection-scale serving cost,
	// instead of a pump goroutine and credit window per partition
	// stream. Either side may mask it out; the connection degrades to
	// FeatStreamFetch per-partition streams (or plain fetch).
	FeatSessionFetch uint32 = 1 << 4
	// FeatMetaPush: the server pushes OpMetadataPush frames to every
	// connection that negotiated the feature whenever the controller
	// bumps the metadata epoch, so clients re-route to new leaders
	// before a request fails. Either side may mask it out; the client
	// then falls back to reactive metadata re-fetch (FeatClusterMeta).
	FeatMetaPush uint32 = 1 << 5
	// FeatReplication: the server accepts inter-broker replication ops
	// (OpReplicaFetch): followers pull batches from the
	// partition leader at their local end offset, fenced by the leader
	// epoch. Masked (old peers, or DisableReplication), brokers fall
	// back to single-replica operation — produce acks gate only on the
	// leader, exactly the pre-replication behavior.
	FeatReplication uint32 = 1 << 6
	// FeatStats: the server answers OpStats with a broker observability
	// snapshot — every counter, gauge and bucketed histogram the broker
	// exports, plus the produce-path stage-trace ring — so operator
	// tooling (octopus-cli stats/trace) scrapes any broker over its
	// ordinary data-plane connection. Masked (old peers, or
	// DisableStats), the op is refused as unknown and tooling falls back
	// to the HTTP metrics listener, when one is configured.
	FeatStats uint32 = 1 << 7

	allFeatures = FeatDenseOffsets | FeatErrCodes | FeatStreamFetch |
		FeatClusterMeta | FeatSessionFetch | FeatMetaPush | FeatReplication |
		FeatStats
)

// v2 operation bytes, one per message pair.
const (
	v2OpPing uint8 = iota + 1
	v2OpAuth
	v2OpProduce
	v2OpFetch
	v2OpEndOffset
	v2OpStartOffset
	v2OpOffsetForTime
	v2OpTopicMeta
	v2OpJoinGroup
	v2OpLeaveGroup
	v2OpHeartbeat
	v2OpCommit
	v2OpCommitted
	// Streaming fetch ops (FeatStreamFetch). StreamOpen is an ordinary
	// request/response pair; StreamBatch and server-side StreamClose are
	// pushed frames correlated by stream ID; client-side StreamCredit and
	// StreamClose are one-way requests the server never answers.
	v2OpStreamOpen
	v2OpStreamBatch
	v2OpStreamCredit
	v2OpStreamClose
	// v2OpMetadata is cluster metadata discovery (FeatClusterMeta).
	v2OpMetadata
	// Multiplexed fetch session ops (FeatSessionFetch). SessionOpen and
	// SessionSub are ordinary request/response pairs (the client sends
	// sub removals one-way and lets the response drop); SessionBatch and
	// server-side SessionClose are pushed frames correlated by
	// sessionID<<32|subID; client-side SessionCredit and SessionClose
	// are one-way requests the server never answers.
	v2OpSessionOpen
	v2OpSessionSub
	v2OpSessionBatch
	v2OpSessionCredit
	v2OpSessionClose
	// v2OpMetadataPush is a server-pushed cluster metadata document
	// (FeatMetaPush), frame-compatible with an OpMetadata response body.
	v2OpMetadataPush
	// Inter-broker replication (FeatReplication): a follower pulls a
	// batch from the leader's log at its own end offset, fenced by the
	// leader epoch; the fetch offset acks everything below it.
	v2OpReplicaFetch
	// The next byte was the retired explicit replica ack. It stays
	// reserved: servers refuse it as an unknown op, never reassign it.
	_
	// v2OpStats is the broker observability snapshot (FeatStats): the
	// exported metrics plus the produce stage-trace ring, as one
	// request/response pair.
	v2OpStats

	// v2OpMax is one past the highest assigned op byte (pool sizing).
	v2OpMax
)

// Msg is the wireMsg codec interface: every v2 protocol message —
// request or response — implements hand-rolled binary body
// encode/decode against it. AppendBody never allocates beyond growing
// buf; DecodeBody allocates only for decoded strings/slices.
type Msg interface {
	// AppendBody appends the message body to buf and returns it.
	AppendBody(buf []byte) []byte
	// DecodeBody decodes the message body, overwriting the receiver.
	// Trailing bytes are ignored (forward compatibility).
	DecodeBody(b []byte) error
}

// ReqMsg is a v2 request message: a Msg with its operation byte and a
// lossless conversion to the v1 JSON header for connections that
// negotiated down.
type ReqMsg interface {
	Msg
	// V2Op is the operation byte identifying the message pair.
	V2Op() uint8
	// v1 converts the request to the legacy JSON header form.
	v1() *Request
}

// respMsg is a v2 response message that can also be filled from / into
// the v1 JSON header, so typed client methods and the typed server
// dispatch are version-agnostic.
type respMsg interface {
	Msg
	fromV1(r *Response)
	toV1(r *Response)
}

// errShortMsg reports a truncated or malformed v2 message body.
var errShortMsg = errors.New("wire: truncated v2 message")

// --- primitive codecs ---

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func getStr(b []byte) (string, []byte, error) {
	n, rest, err := getUint(b)
	if err != nil || n > uint64(len(rest)) {
		return "", nil, errShortMsg
	}
	return string(rest[:n]), rest[n:], nil
}

func appendInt(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) }

func getInt(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, errShortMsg
	}
	return v, b[n:], nil
}

func getUint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errShortMsg
	}
	return v, b[n:], nil
}

// --- header prefix codecs ---

// v2 header prefix sizes: op byte + big-endian correlation ID for
// requests, plus an error-code byte for responses. Corr is fixed-width
// so the reader can match a response to its caller without decoding
// the body.
const (
	v2ReqPrefix  = 1 + 8
	v2RespPrefix = 2 + 8
)

// AppendRequestV2 encodes a complete v2 request header (prefix + body).
func AppendRequestV2(buf []byte, corr uint64, m ReqMsg) []byte {
	buf = append(buf, m.V2Op())
	buf = binary.BigEndian.AppendUint64(buf, corr)
	return m.AppendBody(buf)
}

// DecodeRequestV2 decodes a v2 request header into m, whose operation
// byte must match the header's.
func DecodeRequestV2(hdr []byte, m ReqMsg) (corr uint64, err error) {
	if len(hdr) < v2ReqPrefix {
		return 0, errShortMsg
	}
	if hdr[0] != m.V2Op() {
		return 0, fmt.Errorf("wire: v2 op %d, want %d", hdr[0], m.V2Op())
	}
	corr = binary.BigEndian.Uint64(hdr[1:v2ReqPrefix])
	return corr, m.DecodeBody(hdr[v2ReqPrefix:])
}

// decodeAnyRequestV2 parses a v2 request header of any operation — the
// server's read-loop entry point. The correlation ID is returned even
// when the body is malformed or the op unknown, so the server can
// answer with a typed error instead of dropping the connection. The
// returned message comes from the per-op pool (release with putReqMsg
// after dispatch); topic strings are interned through in when non-nil.
func decodeAnyRequestV2(hdr []byte, in *Interner) (corr uint64, op uint8, m ReqMsg, err error) {
	if len(hdr) < v2ReqPrefix {
		return 0, 0, nil, errShortMsg
	}
	op = hdr[0]
	corr = binary.BigEndian.Uint64(hdr[1:v2ReqPrefix])
	m = getReqMsg(op)
	if m == nil {
		return corr, op, nil, fmt.Errorf("%w %d", errUnknownOp, op)
	}
	if err := decodeReqBody(m, hdr[v2ReqPrefix:], in); err != nil {
		putReqMsg(op, m)
		return corr, op, nil, err
	}
	return corr, op, m, nil
}

// AppendResponseV2 encodes a success (errCode 0) v2 response header.
// op echoes the request's operation byte.
func AppendResponseV2(buf []byte, op uint8, corr uint64, m Msg) []byte {
	buf = append(buf, op, codeOK)
	buf = binary.BigEndian.AppendUint64(buf, corr)
	if m != nil {
		buf = m.AppendBody(buf)
	}
	return buf
}

// appendErrResponseV2 encodes an error v2 response header: the error is
// collapsed to its code plus the full detail string.
func appendErrResponseV2(buf []byte, op uint8, corr uint64, err error) []byte {
	code, _ := errCodeOf(err)
	buf = append(buf, op, code)
	buf = binary.BigEndian.AppendUint64(buf, corr)
	return appendStr(buf, err.Error())
}

// decodeRespPrefixV2 splits a v2 response header into its prefix fields
// and body.
func decodeRespPrefixV2(hdr []byte) (op, code uint8, corr uint64, body []byte, err error) {
	if len(hdr) < v2RespPrefix {
		return 0, 0, 0, nil, errShortMsg
	}
	return hdr[0], hdr[1], binary.BigEndian.Uint64(hdr[2:v2RespPrefix]), hdr[v2RespPrefix:], nil
}

// DecodeResponseV2 decodes a v2 response header into m. When the header
// carries an error code, the returned error is the reconstructed domain
// sentinel (errors.Is-able) and m is left untouched.
func DecodeResponseV2(hdr []byte, m Msg) (op uint8, corr uint64, err error) {
	op, code, corr, body, err := decodeRespPrefixV2(hdr)
	if err != nil {
		return 0, 0, err
	}
	if code != codeOK {
		detail, _, derr := getStr(body)
		if derr != nil {
			return op, corr, derr
		}
		return op, corr, errFromCode(code, detail)
	}
	if m == nil {
		return op, corr, nil
	}
	return op, corr, m.DecodeBody(body)
}

// --- typed error codes ---

// Typed sentinel errors the wire protocol carries as compact error
// codes, re-exported here so SDK callers matching remote errors do not
// need to import every domain package. errors.Is with these works
// identically on the Direct transport and across the wire, in both
// protocol versions.
var (
	// ErrUnknownTopic reports an operation on a topic the fabric does
	// not know.
	ErrUnknownTopic = cluster.ErrNoTopic
	// ErrOffsetOutOfRange reports a fetch below the partition's retained
	// start or beyond its end.
	ErrOffsetOutOfRange = eventlog.ErrOffsetOutOfRange
	// ErrNotLeader reports a data-plane op against a partition whose
	// leader is unavailable.
	ErrNotLeader = broker.ErrLeaderUnavailable
	// ErrNoLeader reports a partition with no leader at all (every ISR
	// member is down). Unlike ErrNotLeader it is not rerouteable — no
	// metadata refresh can find a broker to serve it — so the router
	// retries with bounded backoff, waiting out a re-election, instead
	// of failing over. It wraps ErrNotLeader, so coarse checks keep
	// matching.
	ErrNoLeader = broker.ErrNoLeader
	// ErrFencedEpoch reports a replication op carrying a stale leader
	// epoch: the follower must refetch metadata, truncate to the new
	// leader's log and retry.
	ErrFencedEpoch = broker.ErrFencedEpoch
)

// v2 error codes. codeOK marks a success response; every other value
// names a domain sentinel (or codeOther for unclassified errors).
const (
	codeOK uint8 = iota
	codeOther
	codeLeaderUnavailable
	codeNotEnoughReplicas
	codeStaleGeneration
	codeDenied
	codeBadCredentials
	codeUnknownTopic
	codeOffsetOutOfRange
	codeNoPartition
	codeUnknownMember
	codeBrokerDown
	codeUnknownOp
	codeNoLeader
	codeFencedEpoch
)

// errTable is the single source of truth mapping domain sentinels to
// v2 error codes and v1 err_kind strings. Order matters: the first
// errors.Is match wins.
var errTable = []struct {
	code     uint8
	kind     string
	sentinel error
}{
	// ErrNoLeader wraps ErrLeaderUnavailable, so its entry must come
	// first or the coarser sentinel would claim every no-leader error.
	{codeNoLeader, "no_leader", broker.ErrNoLeader},
	{codeFencedEpoch, "fenced_epoch", broker.ErrFencedEpoch},
	{codeLeaderUnavailable, "leader_unavailable", broker.ErrLeaderUnavailable},
	{codeNotEnoughReplicas, "not_enough_replicas", broker.ErrNotEnoughReplicas},
	{codeStaleGeneration, "stale_generation", broker.ErrStaleGeneration},
	{codeDenied, "denied", auth.ErrDenied},
	{codeBadCredentials, "bad_credentials", auth.ErrBadCredentials},
	{codeUnknownTopic, "unknown_topic", cluster.ErrNoTopic},
	{codeOffsetOutOfRange, "offset_out_of_range", eventlog.ErrOffsetOutOfRange},
	{codeNoPartition, "no_partition", broker.ErrNoPartition},
	{codeUnknownMember, "unknown_member", broker.ErrUnknownMember},
	{codeBrokerDown, "broker_down", broker.ErrBrokerDown},
	{codeUnknownOp, "unknown_op", errUnknownOp},
}

// errCodeOf classifies a server-side error as (v2 code, v1 kind).
func errCodeOf(err error) (uint8, string) {
	for _, e := range errTable {
		if errors.Is(err, e.sentinel) {
			return e.code, e.kind
		}
	}
	return codeOther, "other"
}

// errFromCode reconstructs the domain sentinel from a v2 error code, so
// errors.Is works across the network. The detail string is the server's
// full error text.
func errFromCode(code uint8, detail string) error {
	for _, e := range errTable {
		if e.code == code {
			return fmt.Errorf("%w: %s", e.sentinel, detail)
		}
	}
	return errors.New(detail)
}

// errFromKind is errFromCode for v1's string error kinds.
func errFromKind(kind, detail string) error {
	for _, e := range errTable {
		if e.kind == kind {
			return fmt.Errorf("%w: %s", e.sentinel, detail)
		}
	}
	return errors.New(detail)
}

// newReqMsg allocates the request message for a v2 op byte, nil for
// unknown ops.
func newReqMsg(op uint8) ReqMsg {
	switch op {
	case v2OpPing:
		return &PingReq{}
	case v2OpAuth:
		return &AuthReq{}
	case v2OpProduce:
		return &ProduceReq{}
	case v2OpFetch:
		return &FetchReq{}
	case v2OpEndOffset:
		return &EndOffsetReq{}
	case v2OpStartOffset:
		return &StartOffsetReq{}
	case v2OpOffsetForTime:
		return &OffsetForTimeReq{}
	case v2OpTopicMeta:
		return &TopicMetaReq{}
	case v2OpJoinGroup:
		return &JoinGroupReq{}
	case v2OpLeaveGroup:
		return &LeaveGroupReq{}
	case v2OpHeartbeat:
		return &HeartbeatReq{}
	case v2OpCommit:
		return &CommitReq{}
	case v2OpCommitted:
		return &CommittedReq{}
	case v2OpStreamOpen:
		return &StreamOpenReq{}
	case v2OpStreamCredit:
		return &StreamCreditReq{}
	case v2OpStreamClose:
		return &StreamCloseReq{}
	case v2OpMetadata:
		return &MetadataReq{}
	case v2OpSessionOpen:
		return &SessionOpenReq{}
	case v2OpSessionSub:
		return &SessionSubReq{}
	case v2OpSessionCredit:
		return &SessionCreditReq{}
	case v2OpSessionClose:
		return &SessionCloseReq{}
	case v2OpReplicaFetch:
		return &ReplicaFetchReq{}
	case v2OpStats:
		return &StatsReq{}
	}
	return nil
}

// reqMsgPools recycles decoded request messages on the server's v2 read
// path: with topics interned per connection, reusing the message struct
// is what takes steady-state data-plane header handling to 0 allocs/op.
// Handlers return messages after dispatch; DecodeBody fully overwrites
// every field, so reuse cannot leak state between requests.
var reqMsgPools [v2OpMax]sync.Pool

// getReqMsg returns a pooled request message for op, nil for unknown ops.
func getReqMsg(op uint8) ReqMsg {
	if int(op) >= len(reqMsgPools) {
		return nil
	}
	if v := reqMsgPools[op].Get(); v != nil {
		return v.(ReqMsg)
	}
	return newReqMsg(op)
}

// putReqMsg returns a request message to its op's pool.
func putReqMsg(op uint8, m ReqMsg) {
	if m == nil || int(op) >= len(reqMsgPools) {
		return
	}
	reqMsgPools[op].Put(m)
}

// newRespMsg allocates the response message for a v2 op byte, nil for
// unknown or body-less ops. Used by the response fuzzer; the client
// always knows its expected response type from the pending call.
func newRespMsg(op uint8) respMsg {
	switch op {
	case v2OpPing, v2OpLeaveGroup, v2OpCommit:
		return &EmptyResp{}
	case v2OpAuth:
		return &AuthResp{}
	case v2OpProduce:
		return &ProduceResp{}
	case v2OpFetch:
		return &FetchResp{}
	case v2OpEndOffset, v2OpStartOffset, v2OpOffsetForTime, v2OpCommitted:
		return &OffsetResp{}
	case v2OpTopicMeta:
		return &TopicMetaResp{}
	case v2OpJoinGroup:
		return &JoinGroupResp{}
	case v2OpHeartbeat:
		return &HeartbeatResp{}
	case v2OpStreamOpen:
		return &StreamOpenResp{}
	case v2OpStreamBatch:
		return &FetchResp{}
	case v2OpMetadata:
		return &MetadataResp{}
	case v2OpSessionOpen:
		return &SessionOpenResp{}
	case v2OpSessionSub:
		return &SessionSubResp{}
	case v2OpSessionBatch:
		return &FetchResp{}
	case v2OpMetadataPush:
		return &MetadataResp{}
	case v2OpReplicaFetch:
		return &ReplicaFetchResp{}
	case v2OpStats:
		return &StatsResp{}
	}
	return nil
}

// --- request messages ---

// PingReq is a liveness/auth probe (OpPing).
type PingReq struct{}

func (*PingReq) V2Op() uint8                  { return v2OpPing }
func (*PingReq) AppendBody(buf []byte) []byte { return buf }
func (*PingReq) DecodeBody(b []byte) error    { return nil }
func (*PingReq) v1() *Request                 { return &Request{Op: OpPing} }

// AuthReq authenticates the connection with an access key (OpAuth).
type AuthReq struct {
	AccessKeyID string
	Secret      string
}

func (*AuthReq) V2Op() uint8 { return v2OpAuth }

func (m *AuthReq) AppendBody(buf []byte) []byte {
	buf = appendStr(buf, m.AccessKeyID)
	return appendStr(buf, m.Secret)
}

func (m *AuthReq) DecodeBody(b []byte) error {
	var err error
	if m.AccessKeyID, b, err = getStr(b); err != nil {
		return err
	}
	m.Secret, _, err = getStr(b)
	return err
}

func (m *AuthReq) v1() *Request {
	return &Request{Op: OpAuth, AccessKeyID: m.AccessKeyID, Secret: m.Secret}
}

// ProduceReq appends a batch of events; the events travel in the frame
// payload (OpProduce).
type ProduceReq struct {
	Topic     string
	Partition int
	Acks      int
	NumEvents int
}

func (*ProduceReq) V2Op() uint8 { return v2OpProduce }

func (m *ProduceReq) AppendBody(buf []byte) []byte {
	buf = appendStr(buf, m.Topic)
	buf = appendInt(buf, int64(m.Partition))
	buf = appendInt(buf, int64(m.Acks))
	return appendInt(buf, int64(m.NumEvents))
}

func (m *ProduceReq) DecodeBody(b []byte) error { return m.decodeInterned(b, nil) }

func (m *ProduceReq) decodeInterned(b []byte, in *Interner) error {
	var err error
	var v int64
	if m.Topic, b, err = getStrInterned(b, in); err != nil {
		return err
	}
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.Partition = int(v)
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.Acks = int(v)
	if v, _, err = getInt(b); err != nil {
		return err
	}
	m.NumEvents = int(v)
	return nil
}

func (m *ProduceReq) v1() *Request {
	return &Request{Op: OpProduce, Topic: m.Topic, Partition: m.Partition, Acks: m.Acks, NumEvents: m.NumEvents}
}

// FetchReq reads events from one partition (OpFetch).
type FetchReq struct {
	Topic     string
	Partition int
	Offset    int64
	MaxEvents int
	MaxBytes  int
	// WaitMaxMS, when > 0, long-polls: a fetch that finds nothing at
	// Offset parks on the partition's tail waiter for up to this many
	// milliseconds (server-capped at MaxFetchWait) instead of returning
	// empty, so idle consumers stop hot-looping. Appended after the v2
	// body the previous revision shipped — decoders tolerate trailing
	// bytes, so older v2 peers ignore it; v1 framing drops it entirely.
	WaitMaxMS int
}

func (*FetchReq) V2Op() uint8 { return v2OpFetch }

func (m *FetchReq) AppendBody(buf []byte) []byte {
	buf = appendStr(buf, m.Topic)
	buf = appendInt(buf, int64(m.Partition))
	buf = appendInt(buf, m.Offset)
	buf = appendInt(buf, int64(m.MaxEvents))
	buf = appendInt(buf, int64(m.MaxBytes))
	return appendInt(buf, int64(m.WaitMaxMS))
}

func (m *FetchReq) DecodeBody(b []byte) error { return m.decodeInterned(b, nil) }

func (m *FetchReq) decodeInterned(b []byte, in *Interner) error {
	var err error
	var v int64
	if m.Topic, b, err = getStrInterned(b, in); err != nil {
		return err
	}
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.Partition = int(v)
	if m.Offset, b, err = getInt(b); err != nil {
		return err
	}
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.MaxEvents = int(v)
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.MaxBytes = int(v)
	// WaitMaxMS is absent from bodies encoded by earlier v2 revisions;
	// reset explicitly so a pooled message never carries a stale wait.
	m.WaitMaxMS = 0
	if len(b) > 0 {
		if v, _, err = getInt(b); err != nil {
			return err
		}
		m.WaitMaxMS = int(v)
	}
	return nil
}

func (m *FetchReq) v1() *Request {
	// WaitMaxMS is intentionally dropped: v1 servers predate tail
	// waiters and would ignore an unknown JSON field anyway.
	return &Request{Op: OpFetch, Topic: m.Topic, Partition: m.Partition, Offset: m.Offset, MaxEvents: m.MaxEvents, MaxBytes: m.MaxBytes}
}

// offset-query requests share one body layout: topic + partition.

func appendTopicPartition(buf []byte, topic string, partition int) []byte {
	buf = appendStr(buf, topic)
	return appendInt(buf, int64(partition))
}

func getTopicPartition(b []byte) (topic string, partition int, rest []byte, err error) {
	if topic, b, err = getStr(b); err != nil {
		return "", 0, nil, err
	}
	v, rest, err := getInt(b)
	return topic, int(v), rest, err
}

// EndOffsetReq asks for the next offset to be assigned (OpEndOffset).
type EndOffsetReq struct {
	Topic     string
	Partition int
}

func (*EndOffsetReq) V2Op() uint8 { return v2OpEndOffset }
func (m *EndOffsetReq) AppendBody(buf []byte) []byte {
	return appendTopicPartition(buf, m.Topic, m.Partition)
}
func (m *EndOffsetReq) DecodeBody(b []byte) error {
	var err error
	m.Topic, m.Partition, _, err = getTopicPartition(b)
	return err
}
func (m *EndOffsetReq) v1() *Request {
	return &Request{Op: OpEndOffset, Topic: m.Topic, Partition: m.Partition}
}

// StartOffsetReq asks for the earliest retained offset (OpStartOffset).
type StartOffsetReq struct {
	Topic     string
	Partition int
}

func (*StartOffsetReq) V2Op() uint8 { return v2OpStartOffset }
func (m *StartOffsetReq) AppendBody(buf []byte) []byte {
	return appendTopicPartition(buf, m.Topic, m.Partition)
}
func (m *StartOffsetReq) DecodeBody(b []byte) error {
	var err error
	m.Topic, m.Partition, _, err = getTopicPartition(b)
	return err
}
func (m *StartOffsetReq) v1() *Request {
	return &Request{Op: OpStartOffset, Topic: m.Topic, Partition: m.Partition}
}

// OffsetForTimeReq asks for the first offset at or after a timestamp
// (OpOffsetForTime).
type OffsetForTimeReq struct {
	Topic     string
	Partition int
	TimeNano  int64
}

func (*OffsetForTimeReq) V2Op() uint8 { return v2OpOffsetForTime }

func (m *OffsetForTimeReq) AppendBody(buf []byte) []byte {
	buf = appendTopicPartition(buf, m.Topic, m.Partition)
	return appendInt(buf, m.TimeNano)
}

func (m *OffsetForTimeReq) DecodeBody(b []byte) error {
	var err error
	if m.Topic, m.Partition, b, err = getTopicPartition(b); err != nil {
		return err
	}
	m.TimeNano, _, err = getInt(b)
	return err
}

func (m *OffsetForTimeReq) v1() *Request {
	return &Request{Op: OpOffsetForTime, Topic: m.Topic, Partition: m.Partition, TimeNano: m.TimeNano}
}

// TopicMetaReq asks for topic metadata (OpTopicMeta).
type TopicMetaReq struct {
	Topic string
}

func (*TopicMetaReq) V2Op() uint8                    { return v2OpTopicMeta }
func (m *TopicMetaReq) AppendBody(buf []byte) []byte { return appendStr(buf, m.Topic) }
func (m *TopicMetaReq) DecodeBody(b []byte) error {
	var err error
	m.Topic, _, err = getStr(b)
	return err
}
func (m *TopicMetaReq) v1() *Request { return &Request{Op: OpTopicMeta, Topic: m.Topic} }

// JoinGroupReq registers group membership (OpJoinGroup).
type JoinGroupReq struct {
	Group  string
	Member string
	Topics []string
}

func (*JoinGroupReq) V2Op() uint8 { return v2OpJoinGroup }

func (m *JoinGroupReq) AppendBody(buf []byte) []byte {
	buf = appendStr(buf, m.Group)
	buf = appendStr(buf, m.Member)
	buf = binary.AppendUvarint(buf, uint64(len(m.Topics)))
	for _, t := range m.Topics {
		buf = appendStr(buf, t)
	}
	return buf
}

func (m *JoinGroupReq) DecodeBody(b []byte) error {
	var err error
	if m.Group, b, err = getStr(b); err != nil {
		return err
	}
	if m.Member, b, err = getStr(b); err != nil {
		return err
	}
	n, b, err := getUint(b)
	if err != nil || n > uint64(len(b)) {
		return errShortMsg
	}
	m.Topics = nil
	if n > 0 {
		m.Topics = make([]string, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var t string
		if t, b, err = getStr(b); err != nil {
			return err
		}
		m.Topics = append(m.Topics, t)
	}
	return nil
}

func (m *JoinGroupReq) v1() *Request {
	return &Request{Op: OpJoinGroup, Group: m.Group, Member: m.Member, Topics: m.Topics}
}

// LeaveGroupReq removes a member (OpLeaveGroup).
type LeaveGroupReq struct {
	Group  string
	Member string
}

func (*LeaveGroupReq) V2Op() uint8 { return v2OpLeaveGroup }

func (m *LeaveGroupReq) AppendBody(buf []byte) []byte {
	buf = appendStr(buf, m.Group)
	return appendStr(buf, m.Member)
}

func (m *LeaveGroupReq) DecodeBody(b []byte) error {
	var err error
	if m.Group, b, err = getStr(b); err != nil {
		return err
	}
	m.Member, _, err = getStr(b)
	return err
}

func (m *LeaveGroupReq) v1() *Request {
	return &Request{Op: OpLeaveGroup, Group: m.Group, Member: m.Member}
}

// HeartbeatReq refreshes membership and learns the generation
// (OpHeartbeat).
type HeartbeatReq struct {
	Group  string
	Member string
}

func (*HeartbeatReq) V2Op() uint8 { return v2OpHeartbeat }

func (m *HeartbeatReq) AppendBody(buf []byte) []byte {
	buf = appendStr(buf, m.Group)
	return appendStr(buf, m.Member)
}

func (m *HeartbeatReq) DecodeBody(b []byte) error {
	var err error
	if m.Group, b, err = getStr(b); err != nil {
		return err
	}
	m.Member, _, err = getStr(b)
	return err
}

func (m *HeartbeatReq) v1() *Request {
	return &Request{Op: OpHeartbeat, Group: m.Group, Member: m.Member}
}

// CommitReq records a consumed position (OpCommit).
type CommitReq struct {
	Group      string
	Member     string
	Generation int
	Topic      string
	Partition  int
	Offset     int64
}

func (*CommitReq) V2Op() uint8 { return v2OpCommit }

func (m *CommitReq) AppendBody(buf []byte) []byte {
	buf = appendStr(buf, m.Group)
	buf = appendStr(buf, m.Member)
	buf = appendInt(buf, int64(m.Generation))
	buf = appendStr(buf, m.Topic)
	buf = appendInt(buf, int64(m.Partition))
	return appendInt(buf, m.Offset)
}

func (m *CommitReq) DecodeBody(b []byte) error {
	var err error
	var v int64
	if m.Group, b, err = getStr(b); err != nil {
		return err
	}
	if m.Member, b, err = getStr(b); err != nil {
		return err
	}
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.Generation = int(v)
	if m.Topic, b, err = getStr(b); err != nil {
		return err
	}
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.Partition = int(v)
	m.Offset, _, err = getInt(b)
	return err
}

func (m *CommitReq) v1() *Request {
	return &Request{
		Op: OpCommit, Group: m.Group, Member: m.Member, Generation: m.Generation,
		Topic: m.Topic, Partition: m.Partition, Offset: m.Offset,
	}
}

// CommittedReq asks for a group's committed offset (OpCommitted).
type CommittedReq struct {
	Group     string
	Topic     string
	Partition int
}

func (*CommittedReq) V2Op() uint8 { return v2OpCommitted }

func (m *CommittedReq) AppendBody(buf []byte) []byte {
	buf = appendStr(buf, m.Group)
	return appendTopicPartition(buf, m.Topic, m.Partition)
}

func (m *CommittedReq) DecodeBody(b []byte) error {
	var err error
	if m.Group, b, err = getStr(b); err != nil {
		return err
	}
	m.Topic, m.Partition, _, err = getTopicPartition(b)
	return err
}

func (m *CommittedReq) v1() *Request {
	return &Request{Op: OpCommitted, Group: m.Group, Topic: m.Topic, Partition: m.Partition}
}

// --- response messages ---

// EmptyResp is the body-less success response (ping, leave, commit).
type EmptyResp struct{}

func (*EmptyResp) AppendBody(buf []byte) []byte { return buf }
func (*EmptyResp) DecodeBody(b []byte) error    { return nil }
func (*EmptyResp) fromV1(*Response)             {}
func (*EmptyResp) toV1(*Response)               {}

// AuthResp reports the authenticated identity.
type AuthResp struct {
	Identity string
}

func (m *AuthResp) AppendBody(buf []byte) []byte { return appendStr(buf, m.Identity) }
func (m *AuthResp) DecodeBody(b []byte) error {
	var err error
	m.Identity, _, err = getStr(b)
	return err
}
func (m *AuthResp) fromV1(r *Response) { m.Identity = r.Identity }
func (m *AuthResp) toV1(r *Response)   { r.Identity = m.Identity }

// ProduceResp reports the batch's base offset.
type ProduceResp struct {
	Offset int64
}

func (m *ProduceResp) AppendBody(buf []byte) []byte { return appendInt(buf, m.Offset) }
func (m *ProduceResp) DecodeBody(b []byte) error {
	var err error
	m.Offset, _, err = getInt(b)
	return err
}
func (m *ProduceResp) fromV1(r *Response) { m.Offset = r.Offset }
func (m *ProduceResp) toV1(r *Response)   { r.Offset = m.Offset }

// OffsetResp carries a single offset (end/start/time queries and
// committed lookups).
type OffsetResp struct {
	Offset int64
}

func (m *OffsetResp) AppendBody(buf []byte) []byte { return appendInt(buf, m.Offset) }
func (m *OffsetResp) DecodeBody(b []byte) error {
	var err error
	m.Offset, _, err = getInt(b)
	return err
}
func (m *OffsetResp) fromV1(r *Response) { m.Offset = r.Offset }
func (m *OffsetResp) toV1(r *Response)   { r.Offset = m.Offset }

// offsetRun is one maximal run of consecutive event offsets in a fetch
// response: count events starting at start.
type offsetRun struct {
	start int64
	count int64
}

// FetchResp describes a fetched batch; the events travel in the frame
// payload. Offsets are carried as dense runs — one (start, count) pair
// per contiguous stretch — replacing v1's per-event Offsets array. A
// gapless read is two varints regardless of batch size, and the
// decoded runs live in an inline array for the common case, so the
// steady-state fetch header round trip allocates nothing.
//
// A FetchResp must not be copied by value once SetOffsets or
// DecodeBody has run: the runs slice aliases the struct's own inline
// array, so a copy would keep stamping from the original's storage.
type FetchResp struct {
	NumEvents     int
	HighWatermark int64
	StartOffset   int64

	// runs is the dense-run offset encoding (v2), backed by runsBuf
	// while the response has ≤ 4 discontinuities.
	runs    []offsetRun
	runsBuf [4]offsetRun
	// v1Offsets is the legacy per-event array, set only when the
	// response arrived over a v1 connection.
	v1Offsets []int64
}

// SetOffsets records the events' offsets in dense-run form (the server
// side of the encoding).
func (m *FetchResp) SetOffsets(evs []event.Event) {
	m.v1Offsets = nil
	m.runs = m.runsBuf[:0]
	for i := range evs {
		off := evs[i].Offset
		if n := len(m.runs); n > 0 && m.runs[n-1].start+m.runs[n-1].count == off {
			m.runs[n-1].count++
			continue
		}
		m.runs = append(m.runs, offsetRun{start: off, count: 1})
	}
}

// Stamp fills the container-carried fields (topic, partition, offset)
// on a decoded event batch, walking the dense runs — the client side of
// the encoding. It handles both wire forms, so callers are agnostic to
// the negotiated version.
func (m *FetchResp) Stamp(evs []event.Event, topic string, partition int) {
	for i := range evs {
		evs[i].Topic = topic
		evs[i].Partition = partition
	}
	if m.v1Offsets != nil {
		for i := range evs {
			if i < len(m.v1Offsets) {
				evs[i].Offset = m.v1Offsets[i]
			}
		}
		return
	}
	i := 0
	for _, r := range m.runs {
		for k := int64(0); k < r.count && i < len(evs); k++ {
			evs[i].Offset = r.start + k
			i++
		}
	}
}

func (m *FetchResp) AppendBody(buf []byte) []byte {
	buf = appendInt(buf, m.HighWatermark)
	buf = appendInt(buf, m.StartOffset)
	buf = appendInt(buf, int64(m.NumEvents))
	buf = binary.AppendUvarint(buf, uint64(len(m.runs)))
	for _, r := range m.runs {
		buf = appendInt(buf, r.start)
		buf = binary.AppendUvarint(buf, uint64(r.count))
	}
	return buf
}

func (m *FetchResp) DecodeBody(b []byte) error {
	var err error
	var v int64
	m.v1Offsets = nil
	m.runs = m.runsBuf[:0]
	if m.HighWatermark, b, err = getInt(b); err != nil {
		return err
	}
	if m.StartOffset, b, err = getInt(b); err != nil {
		return err
	}
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.NumEvents = int(v)
	n, b, err := getUint(b)
	if err != nil || n > uint64(len(b)) {
		return errShortMsg
	}
	for i := uint64(0); i < n; i++ {
		var r offsetRun
		if r.start, b, err = getInt(b); err != nil {
			return err
		}
		var c uint64
		if c, b, err = getUint(b); err != nil {
			return err
		}
		r.count = int64(c)
		m.runs = append(m.runs, r)
	}
	return nil
}

func (m *FetchResp) fromV1(r *Response) {
	m.NumEvents = r.NumEvents
	m.HighWatermark = r.HighWatermark
	m.StartOffset = r.StartOffset
	m.runs = nil
	m.v1Offsets = r.Offsets
}

func (m *FetchResp) toV1(r *Response) {
	r.NumEvents = m.NumEvents
	r.HighWatermark = m.HighWatermark
	r.StartOffset = m.StartOffset
	offsets := make([]int64, 0, m.NumEvents)
	for _, run := range m.runs {
		for k := int64(0); k < run.count; k++ {
			offsets = append(offsets, run.start+k)
		}
	}
	r.Offsets = offsets
}

// TopicMetaResp carries topic metadata. The metadata document is
// deeply structured and strictly control-plane (one lookup per
// producer/consumer warm-up), so the body is a length-prefixed JSON
// blob rather than a hand-rolled layout.
type TopicMetaResp struct {
	Meta *cluster.TopicMeta
}

func (m *TopicMetaResp) AppendBody(buf []byte) []byte {
	jb, err := json.Marshal(m.Meta)
	if err != nil {
		// TopicMeta is a plain data struct; marshal cannot fail.
		panic("wire: marshal topic meta: " + err.Error())
	}
	buf = binary.AppendUvarint(buf, uint64(len(jb)))
	return append(buf, jb...)
}

func (m *TopicMetaResp) DecodeBody(b []byte) error {
	n, b, err := getUint(b)
	if err != nil || n > uint64(len(b)) {
		return errShortMsg
	}
	m.Meta = nil
	if n == 0 {
		return nil
	}
	if err := json.Unmarshal(b[:n], &m.Meta); err != nil {
		return fmt.Errorf("wire: bad topic meta: %w", err)
	}
	return nil
}

func (m *TopicMetaResp) fromV1(r *Response) { m.Meta = r.Meta }
func (m *TopicMetaResp) toV1(r *Response)   { r.Meta = m.Meta }

// JoinGroupResp carries the coordinator's assignment.
type JoinGroupResp struct {
	Generation int
	Partitions []broker.TP
}

func (m *JoinGroupResp) AppendBody(buf []byte) []byte {
	buf = appendInt(buf, int64(m.Generation))
	buf = binary.AppendUvarint(buf, uint64(len(m.Partitions)))
	for _, tp := range m.Partitions {
		buf = appendTopicPartition(buf, tp.Topic, tp.Partition)
	}
	return buf
}

func (m *JoinGroupResp) DecodeBody(b []byte) error {
	var err error
	var v int64
	if v, b, err = getInt(b); err != nil {
		return err
	}
	m.Generation = int(v)
	n, b, err := getUint(b)
	if err != nil || n > uint64(len(b)) {
		return errShortMsg
	}
	m.Partitions = nil
	if n > 0 {
		m.Partitions = make([]broker.TP, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var tp broker.TP
		if tp.Topic, tp.Partition, b, err = getTopicPartition(b); err != nil {
			return err
		}
		m.Partitions = append(m.Partitions, tp)
	}
	return nil
}

func (m *JoinGroupResp) fromV1(r *Response) {
	m.Generation = r.Generation
	m.Partitions = nil
	for _, tp := range r.Partitions {
		m.Partitions = append(m.Partitions, broker.TP{Topic: tp.Topic, Partition: tp.Partition})
	}
}

func (m *JoinGroupResp) toV1(r *Response) {
	r.Generation = m.Generation
	tps := make([]TPJSON, len(m.Partitions))
	for i, tp := range m.Partitions {
		tps[i] = TPJSON{Topic: tp.Topic, Partition: tp.Partition}
	}
	r.Partitions = tps
}

// HeartbeatResp carries the current group generation.
type HeartbeatResp struct {
	Generation int
}

func (m *HeartbeatResp) AppendBody(buf []byte) []byte { return appendInt(buf, int64(m.Generation)) }
func (m *HeartbeatResp) DecodeBody(b []byte) error {
	v, _, err := getInt(b)
	m.Generation = int(v)
	return err
}
func (m *HeartbeatResp) fromV1(r *Response) { m.Generation = r.Generation }
func (m *HeartbeatResp) toV1(r *Response)   { r.Generation = m.Generation }
