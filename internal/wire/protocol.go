// Package wire is the Octopus binary network protocol: a length-framed
// request/response RPC carrying control headers and binary event
// batches. It lets producers and consumers on remote resources (edge,
// HPC login nodes, other clouds) talk to the cloud-hosted fabric, the
// hybrid deployment model of §IV. The wire client implements
// client.Transport, so SDK producers/consumers work unchanged over TCP.
//
// Frame layout (big endian), identical in both protocol versions:
//
//	u32 headerLen | header bytes | u32 payloadLen | payload bytes
//
// The payload is a concatenation of event.Marshal records for produce
// requests and fetch responses, empty otherwise.
//
// Two header encodings exist. Protocol v1 (this file) encodes headers
// as JSON Request/Response documents — one bag of optional fields
// shared by every operation. Protocol v2 (protocolv2.go) encodes each
// operation as its own typed binary message. A connection starts in v1
// framing; the client's first frame may be an OpNegotiate request, and
// when the server answers with a version ≥ 2 both sides switch to v2
// headers for every subsequent frame. Peers that predate negotiation
// reject OpNegotiate as an unknown op, which the client treats as
// "speak v1" — old servers and old clients keep working unchanged.
//
// The transport is pipelined: request headers carry a correlation ID
// that the server echoes on the matching response, so many requests
// from one client share a connection and responses may be delivered in
// any order (the server handles requests concurrently).
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/event"
)

// Op identifies a request type.
type Op string

// Protocol operations.
const (
	// OpNegotiate is the version handshake: the first request on a
	// connection from a v2-capable client, always in v1 JSON framing so
	// that servers of every vintage can parse it. Servers that know it
	// answer with the selected version and feature set; servers that
	// predate it answer with an "unknown op" error, which the client
	// treats as negotiating down to v1.
	OpNegotiate     Op = "negotiate"
	OpAuth          Op = "auth"
	OpProduce       Op = "produce"
	OpFetch         Op = "fetch"
	OpEndOffset     Op = "end_offset"
	OpStartOffset   Op = "start_offset"
	OpOffsetForTime Op = "offset_for_time"
	OpTopicMeta     Op = "topic_meta"
	OpJoinGroup     Op = "join_group"
	OpLeaveGroup    Op = "leave_group"
	OpHeartbeat     Op = "heartbeat"
	OpCommit        Op = "commit"
	OpCommitted     Op = "committed"
	OpPing          Op = "ping"
	// Streaming fetch ops (v2-only; FeatStreamFetch). The v1 spellings
	// exist purely so a stream message converted to v1 framing is
	// rejected as an unknown op by legacy servers — the clean fallback.
	OpStreamOpen   Op = "stream_open"
	OpStreamCredit Op = "stream_credit"
	OpStreamClose  Op = "stream_close"
	// OpMetadata is cluster metadata discovery (v2-only;
	// FeatClusterMeta). The v1 spelling exists purely so the message
	// converted to v1 framing is rejected as an unknown op by legacy
	// servers — the clean fallback to single-address routing.
	OpMetadata Op = "metadata"
	// Multiplexed fetch session ops (v2-only; FeatSessionFetch). The v1
	// spellings exist purely so a session message converted to v1
	// framing is rejected as an unknown op by legacy servers — the
	// clean fallback to per-partition streams or plain fetch.
	OpSessionOpen   Op = "session_open"
	OpSessionSub    Op = "session_sub"
	OpSessionCredit Op = "session_credit"
	OpSessionClose  Op = "session_close"
	// Inter-broker replication ops (v2-only; FeatReplication). The v1
	// spellings exist purely so a replication message converted to v1
	// framing is rejected as an unknown op by legacy servers — the clean
	// fallback that lets a mixed-version cluster degrade to
	// single-replica operation instead of wedging.
	OpReplicaFetch Op = "replica_fetch"
	// OpStats is the broker observability snapshot (v2-only; FeatStats).
	// The v1 spelling exists purely so the message converted to v1
	// framing is rejected as an unknown op by legacy servers — the clean
	// fallback to the HTTP metrics listener.
	OpStats Op = "stats"
)

// MaxFrame bounds a frame's payload to keep a misbehaving peer from
// exhausting memory (64 MiB, comfortably above the 6 MB trigger batch
// cap).
const MaxFrame = 64 << 20

// MaxHeader bounds a frame's header section independently of the
// payload bound. Headers are small (a few hundred bytes of JSON in v1,
// tens of bytes of binary in v2), so a headerLen near MaxFrame is
// hostile — both sides reject it before allocating or reading a byte
// of it. 8 MiB leaves generous room for the largest legitimate header,
// a v1 fetch response carrying a per-event JSON offsets array
// (~800k-event fetches of zero-byte events), while still refusing the
// 64 MiB forced read a hostile length could previously demand.
const MaxHeader = 8 << 20

// ErrFrameTooLarge reports an over-sized frame section (header or
// payload, each checked against its own bound before allocation).
var ErrFrameTooLarge = errors.New("wire: frame exceeds limit")

// Request is the JSON header of a client frame (protocol v1).
type Request struct {
	Op Op `json:"op"`
	// Corr is the request's correlation ID. The client assigns a
	// connection-unique value per request and the server echoes it on the
	// matching response, which is what lets many requests be in flight on
	// one connection with responses delivered in any order.
	Corr uint64 `json:"corr,omitempty"`
	// Negotiation fields (OpNegotiate): the highest protocol version the
	// client speaks and the features it implements.
	MaxVersion int    `json:"max_version,omitempty"`
	Features   uint32 `json:"features,omitempty"`
	// Auth fields (OpAuth).
	AccessKeyID string `json:"access_key_id,omitempty"`
	Secret      string `json:"secret,omitempty"`
	// Topic routing.
	Topic     string `json:"topic,omitempty"`
	Partition int    `json:"partition,omitempty"`
	// Produce.
	Acks      int `json:"acks,omitempty"`
	NumEvents int `json:"num_events,omitempty"`
	// Fetch / offsets.
	Offset    int64 `json:"offset,omitempty"`
	MaxEvents int   `json:"max_events,omitempty"`
	MaxBytes  int   `json:"max_bytes,omitempty"`
	TimeNano  int64 `json:"time_nano,omitempty"`
	// Groups.
	Group      string   `json:"group,omitempty"`
	Member     string   `json:"member,omitempty"`
	Topics     []string `json:"topics,omitempty"`
	Generation int      `json:"generation,omitempty"`
}

// TPJSON is a topic partition in responses.
type TPJSON struct {
	Topic     string `json:"topic"`
	Partition int    `json:"partition"`
}

// Response is the JSON header of a server frame (protocol v1).
type Response struct {
	// Corr echoes the request's correlation ID.
	Corr uint64 `json:"corr,omitempty"`

	// Negotiation fields (OpNegotiate): the version the server selected
	// and the feature intersection.
	Version  int    `json:"version,omitempty"`
	Features uint32 `json:"features,omitempty"`

	Err string `json:"err,omitempty"`
	// ErrKind carries the sentinel class so clients can match with
	// errors.Is across the wire ("leader_unavailable", "denied", ...).
	ErrKind string `json:"err_kind,omitempty"`

	Offset        int64              `json:"offset,omitempty"`
	HighWatermark int64              `json:"high_watermark,omitempty"`
	StartOffset   int64              `json:"start_offset,omitempty"`
	NumEvents     int                `json:"num_events,omitempty"`
	Generation    int                `json:"generation,omitempty"`
	Partitions    []TPJSON           `json:"partitions,omitempty"`
	Meta          *cluster.TopicMeta `json:"meta,omitempty"`
	Identity      string             `json:"identity,omitempty"`
	// Offsets carries per-event offsets for fetch responses (the binary
	// event encoding omits container fields).
	Offsets []int64 `json:"offsets,omitempty"`
}

// maxPooledFrame bounds the capacity of a frame buffer a writer keeps
// for reuse: one giant fetch must not pin megabytes forever.
const maxPooledFrame = 1 << 20

// WriteFrame writes a v1 header + payload frame.
func WriteFrame(w io.Writer, header any, payload []byte) error {
	var v frameVec
	if err := v.appendV1(header, payload, nil); err != nil {
		return err
	}
	return v.writeTo(w)
}

// readHeaderInto reads the raw header section of a frame into *buf,
// growing (and replacing) it as needed, and returns the filled slice.
// The header length is checked against MaxHeader before any allocation
// or read, so a hostile length cannot force a large read ahead of the
// payload's own bound.
func readHeaderInto(r io.Reader, buf *[]byte) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	hlen := binary.BigEndian.Uint32(lenBuf[:])
	if hlen > MaxHeader {
		return nil, ErrFrameTooLarge
	}
	hb := *buf
	if cap(hb) < int(hlen) {
		hb = make([]byte, hlen)
		*buf = hb
	}
	hb = hb[:hlen]
	if _, err := io.ReadFull(r, hb); err != nil {
		return nil, err
	}
	return hb, nil
}

// ReadHeader reads the header section of a frame, decoding the JSON
// header into header. The payload section must then be consumed with
// ReadPayloadInto before the next ReadHeader. The split lets the
// pipelined client match the correlation ID first, then read the payload
// directly into that request's receive buffer.
func ReadHeader(r io.Reader, header any) error {
	var hb []byte
	hb, err := readHeaderInto(r, &hb)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(hb, header); err != nil {
		return fmt.Errorf("wire: bad header: %w", err)
	}
	return nil
}

// ReadPayloadInto reads the payload section of a frame into buf when it
// fits buf's capacity, growing it otherwise, and returns the filled
// slice (nil for an empty payload). Passing nil buf always allocates
// fresh, which is ReadFrame's behavior.
func ReadPayloadInto(r io.Reader, buf []byte) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	plen := binary.BigEndian.Uint32(lenBuf[:])
	if plen > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if plen == 0 {
		return nil, nil
	}
	payload := buf
	if cap(payload) < int(plen) {
		payload = make([]byte, plen)
	}
	payload = payload[:plen]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// ReadFrame reads one frame, decoding the JSON header into header. The
// payload is a freshly allocated buffer, which the caller owns (the
// server relies on this: decoded produce frames are donated to the
// fabric as the batch arena).
func ReadFrame(r io.Reader, header any) (payload []byte, err error) {
	if err := ReadHeader(r, header); err != nil {
		return nil, err
	}
	return ReadPayloadInto(r, nil)
}

// EncodeEvents concatenates marshaled events into one payload, sized
// exactly with a single allocation.
func EncodeEvents(evs []event.Event) []byte {
	return event.AppendBatchMarshal(nil, evs)
}

// DecodeEvents splits a payload into n events. The payload buffer becomes
// the batch's arena: decoded keys and values alias it, so callers hand
// over ownership (ReadFrame allocates a fresh buffer per frame).
func DecodeEvents(payload []byte, n int) ([]event.Event, error) {
	out, pos, err := event.UnmarshalBatch(payload, n)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("wire: %d trailing bytes after %d events", len(payload)-pos, n)
	}
	return out, nil
}

// Deadline for protocol I/O on a single frame exchange.
const IOTimeout = 30 * time.Second
