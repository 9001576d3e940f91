package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"

	"repro/internal/event"
)

// borrowMin is the size from which a frame writer references a payload
// slice in place instead of copying it into its frame buffer: event
// values in responses, and whole produce payloads in requests. Shorter
// slices are cheaper to copy than to carry as one more iovec.
const borrowMin = 1 << 10

// frameVec accumulates encoded frames for one vectored write. Headers
// and short fields are copied into buf; slices of at least borrowMin
// bytes are borrowed — kept by reference, in order — and interleaved
// with buf when the frames are written, so the bytes on the wire equal
// the flat encoding exactly.
//
// Borrowing has one rule: a borrowed slice must not change until the
// frames holding it have been written (writeTo returned). Log arenas
// are write-once, so event values read from a log always qualify; a
// client's produce payload qualifies because its call holds it until
// the writer releases it (see call.inflight).
type frameVec struct {
	buf []byte
	// borrowed[i] is written right after buf[:at[i]].
	borrowed [][]byte
	at       []int
	// iov is the write's scratch vector, kept for its capacity; out is
	// the header WriteTo consumes.
	iov, out net.Buffers
}

// appendPayload appends p, borrowing it when it is at least borrowMin
// bytes long.
func (v *frameVec) appendPayload(p []byte) {
	if len(p) < borrowMin {
		v.buf = append(v.buf, p...)
		return
	}
	v.borrowed = append(v.borrowed, p)
	v.at = append(v.at, len(v.buf))
}

// appendEvents appends the frame payload section for evs: its u32
// length, then each event's binary encoding, values borrowed. It is
// the one encoder for event payloads on the wire; the bytes equal
// event.AppendBatchMarshal's.
func (v *frameVec) appendEvents(evs []event.Event) error {
	total := 0
	for i := range evs {
		total += evs[i].MarshaledSize()
	}
	if total > MaxFrame {
		return ErrFrameTooLarge
	}
	v.buf = binary.BigEndian.AppendUint32(v.buf, uint32(total))
	for i := range evs {
		e := &evs[i]
		v.buf = e.AppendMarshalHead(v.buf)
		v.appendPayload(e.Value)
		v.buf = e.AppendMarshalTail(v.buf)
	}
	return nil
}

// writeTo writes every pending frame to w: one write for a buffer with
// nothing borrowed, else one vectored write (writev on a TCP
// connection).
func (v *frameVec) writeTo(w io.Writer) error {
	if len(v.borrowed) == 0 {
		_, err := w.Write(v.buf)
		return err
	}
	iov := v.iov[:0]
	prev := 0
	for i, b := range v.borrowed {
		if v.at[i] > prev {
			iov = append(iov, v.buf[prev:v.at[i]])
		}
		iov = append(iov, b)
		prev = v.at[i]
	}
	if prev < len(v.buf) {
		iov = append(iov, v.buf[prev:])
	}
	// WriteTo consumes the vector it is called on, so it runs on a
	// second header over the same array; v.iov keeps the capacity.
	v.iov, v.out = iov, iov
	_, err := v.out.WriteTo(w)
	return err
}

// reset empties v for reuse, dropping every borrowed reference so a
// written arena is not kept alive by the writer.
func (v *frameVec) reset() {
	clear(v.borrowed)
	clear(v.iov[:cap(v.iov)])
	v.borrowed = v.borrowed[:0]
	v.at = v.at[:0]
	v.iov, v.out = v.iov[:0], nil
	if cap(v.buf) > maxPooledFrame {
		// One giant frame must not pin its buffer.
		v.buf = nil
	}
	v.buf = v.buf[:0]
}

// empty reports whether no frame is pending.
func (v *frameVec) empty() bool { return len(v.buf) == 0 && len(v.borrowed) == 0 }

// beginFrame reserves a frame's u32 header length; endHeader fills it
// in once the header is encoded, and rolls the frame back if the header
// exceeds MaxHeader. Nothing is borrowed before a frame's header ends,
// so truncating buf is a complete rollback.
func (v *frameVec) beginFrame() int {
	v.buf = append(v.buf, 0, 0, 0, 0)
	return len(v.buf) - 4
}

func (v *frameVec) endHeader(at int) error {
	hlen := len(v.buf) - at - 4
	if hlen > MaxHeader {
		v.buf = v.buf[:at]
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(v.buf[at:], uint32(hlen))
	return nil
}

// appendV1 appends a v1 frame: the JSON header, then the payload
// section — the events' encoding when evs is non-nil, else payload.
func (v *frameVec) appendV1(header any, payload []byte, evs []event.Event) error {
	hb, err := json.Marshal(header)
	if err != nil {
		return fmt.Errorf("wire: marshal header: %w", err)
	}
	at := v.beginFrame()
	v.buf = append(v.buf, hb...)
	if err := v.endHeader(at); err != nil {
		return err
	}
	return v.finishFrame(at, payload, evs)
}

// appendRequestV2 appends a v2 request frame carrying payload.
func (v *frameVec) appendRequestV2(corr uint64, m ReqMsg, payload []byte) error {
	at := v.beginFrame()
	v.buf = AppendRequestV2(v.buf, corr, m)
	if err := v.endHeader(at); err != nil {
		return err
	}
	return v.finishFrame(at, payload, nil)
}

// appendResponseV2 appends a v2 response frame: a typed header (or an
// error code and detail when respErr is non-nil, with no events)
// followed by the events' encoding.
func (v *frameVec) appendResponseV2(op uint8, corr uint64, m Msg, respErr error, evs []event.Event) error {
	at := v.beginFrame()
	if respErr != nil {
		v.buf = appendErrResponseV2(v.buf, op, corr, respErr)
		evs = nil
	} else {
		v.buf = AppendResponseV2(v.buf, op, corr, m)
	}
	if err := v.endHeader(at); err != nil {
		return err
	}
	return v.finishFrame(at, nil, evs)
}

// finishFrame appends the payload section of the frame begun at at,
// rolling the whole frame back if the payload exceeds MaxFrame.
func (v *frameVec) finishFrame(at int, payload []byte, evs []event.Event) error {
	if evs != nil {
		if err := v.appendEvents(evs); err != nil {
			v.buf = v.buf[:at]
			return err
		}
		return nil
	}
	if len(payload) > MaxFrame {
		v.buf = v.buf[:at]
		return ErrFrameTooLarge
	}
	v.buf = binary.BigEndian.AppendUint32(v.buf, uint32(len(payload)))
	v.appendPayload(payload)
	return nil
}
