package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/event"
	"repro/internal/vclock"
)

// ProducerConfig tunes the SDK producer. Defaults mirror the paper's
// tuned settings (§V-B: buffer.memory reduced to 256 KB) and the SDK's
// retry behavior (§IV-F: "the SDK producer retries a configurable number
// of times before failing").
type ProducerConfig struct {
	// Identity is the producing principal (empty = trusted in-process).
	Identity string
	// Acks is the acknowledgment level (default AcksLeader).
	Acks broker.Acks
	// AcksSet marks Acks as explicitly chosen, allowing AcksNone (whose
	// zero value would otherwise be indistinguishable from "unset").
	AcksSet bool
	// Retries is how many times a failed batch is retried (default 3).
	Retries int
	// RetryBackoff separates attempts (default 50 ms).
	RetryBackoff time.Duration
	// BatchEvents flushes when this many events are buffered (default 256).
	BatchEvents int
	// BufferBytes flushes when this much payload is buffered
	// (default 256 KB, the paper's buffer.memory).
	BufferBytes int
	// Linger is how long the flusher waits for more events before it
	// sends a batch that is not full (default 5 ms). It does not bound
	// how long an event waits: each Producer has one batch in flight at
	// a time, which is what keeps per-partition order, and events sent
	// meanwhile queue behind it. Such an event waits for that batch's
	// acknowledgment (at acks=all, replication included), then up to
	// Linger more.
	Linger time.Duration
	// Clock supplies time (default real).
	Clock vclock.Clock
}

func (c *ProducerConfig) fill() {
	if c.Acks == 0 && !c.AcksSet {
		c.Acks = broker.AcksLeader
	}
	if c.Retries == 0 {
		c.Retries = 3
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.BatchEvents == 0 {
		c.BatchEvents = 256
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = 256 << 10
	}
	if c.Linger == 0 {
		c.Linger = 5 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = vclock.Real{}
	}
}

// ErrProducerClosed reports a send on a closed producer.
var ErrProducerClosed = errors.New("client: producer closed")

// DeliveryError describes a batch that exhausted its retries.
type DeliveryError struct {
	Topic  string
	Events int
	Err    error
}

func (e *DeliveryError) Error() string {
	return fmt.Sprintf("client: delivery of %d events to %s failed: %v", e.Events, e.Topic, e.Err)
}

func (e *DeliveryError) Unwrap() error { return e.Err }

// Producer publishes events to one topic with asynchronous batching:
// Send buffers, a background flusher groups events into batches bounded
// by count, bytes, and linger time, and failed batches are retried with
// backoff. Flush and Close provide the synchronous barriers.
//
// One flusher goroutine produces every buffered batch, one at a time:
// its Transport.Produce calls never overlap, and batches reach the
// transport in Send order. SendSync bypasses the buffer and the
// flusher, and with them that ordering.
type Producer struct {
	t     Transport
	topic string
	cfg   ProducerConfig

	mu      sync.Mutex
	buf     []event.Event
	bufSize int
	// spare is the flusher's second batch slice: flushOnce swaps it in
	// for buf, and keeps the drained batch, cleared, as the next spare
	// once Produce has returned. Only the flusher touches it.
	spare   []event.Event
	closed  bool
	flushCh chan chan error
	wakeCh  chan struct{}
	doneCh  chan struct{}

	errMu  sync.Mutex
	errors []error

	// Sent counts successfully delivered events.
	sent int64
}

// NewProducer creates a producer for the topic and starts its flusher.
func NewProducer(t Transport, topic string, cfg ProducerConfig) *Producer {
	cfg.fill()
	p := &Producer{
		t:       t,
		topic:   topic,
		cfg:     cfg,
		flushCh: make(chan chan error, 16),
		wakeCh:  make(chan struct{}, 1),
		doneCh:  make(chan struct{}),
	}
	go p.run()
	return p
}

// Send buffers an event for asynchronous delivery. It returns
// immediately; delivery failures surface via Errors or the error
// returned from Flush/Close.
func (p *Producer) Send(ev event.Event) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrProducerClosed
	}
	p.buf = append(p.buf, ev)
	p.bufSize += ev.Size()
	full := len(p.buf) >= p.cfg.BatchEvents || p.bufSize >= p.cfg.BufferBytes
	p.mu.Unlock()
	if full {
		select {
		case p.wakeCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// SendJSON marshals v and sends it with the given key.
func (p *Producer) SendJSON(key string, v any) error {
	return p.Send(event.New(key, v))
}

// SendSync publishes a single event synchronously, bypassing the buffer,
// and returns its base offset.
func (p *Producer) SendSync(ev event.Event) (int64, error) {
	return p.produceWithRetry([]event.Event{ev})
}

// Flush delivers everything buffered and returns the first error
// encountered since the previous Flush, if any.
func (p *Producer) Flush() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrProducerClosed
	}
	p.mu.Unlock()
	ack := make(chan error, 1)
	p.flushCh <- ack
	return <-ack
}

// Close flushes and stops the producer.
func (p *Producer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	ack := make(chan error, 1)
	p.flushCh <- ack
	err := <-ack
	close(p.doneCh)
	return err
}

// Sent returns the number of events successfully delivered.
func (p *Producer) Sent() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent
}

// Errors drains and returns accumulated delivery errors.
func (p *Producer) Errors() []error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	out := p.errors
	p.errors = nil
	return out
}

func (p *Producer) run() {
	for {
		select {
		case <-p.doneCh:
			return
		case ack := <-p.flushCh:
			ack <- p.flushOnce()
		case <-p.wakeCh:
			p.recordErr(p.flushOnce())
		case <-p.cfg.Clock.After(p.cfg.Linger):
			p.recordErr(p.flushOnce())
		}
	}
}

func (p *Producer) recordErr(err error) {
	if err == nil {
		return
	}
	p.errMu.Lock()
	p.errors = append(p.errors, err)
	p.errMu.Unlock()
}

// flushOnce drains the buffer and produces it as one batch.
func (p *Producer) flushOnce() error {
	p.mu.Lock()
	batch := p.buf
	if len(batch) == 0 {
		p.mu.Unlock()
		return nil
	}
	p.buf = p.spare
	p.bufSize = 0
	p.mu.Unlock()
	_, err := p.produceWithRetry(batch)
	// Produce has returned, so the transport holds no reference to
	// batch: drop its events' references and keep it as the spare.
	clear(batch)
	p.spare = batch[:0]
	return err
}

func (p *Producer) produceWithRetry(batch []event.Event) (int64, error) {
	var lastErr error
	for attempt := 0; attempt <= p.cfg.Retries; attempt++ {
		if attempt > 0 {
			p.cfg.Clock.Sleep(p.cfg.RetryBackoff)
		}
		off, err := p.t.Produce(p.cfg.Identity, p.topic, -1, batch, p.cfg.Acks)
		if err == nil {
			p.mu.Lock()
			p.sent += int64(len(batch))
			p.mu.Unlock()
			return off, nil
		}
		lastErr = err
		if !retryable(err) {
			break
		}
	}
	derr := &DeliveryError{Topic: p.topic, Events: len(batch), Err: lastErr}
	return 0, derr
}

// temporary is implemented by transient transport errors (e.g. network
// partitions injected by internal/netsim).
type temporary interface {
	Temporary() bool
}

// retryable reports whether an error is transient: leader failover,
// broker unavailability and network partitions heal; authorization and
// schema errors do not.
func retryable(err error) bool {
	var tmp temporary
	if errors.As(err, &tmp) && tmp.Temporary() {
		return true
	}
	return errors.Is(err, broker.ErrLeaderUnavailable) ||
		errors.Is(err, broker.ErrBrokerDown) ||
		errors.Is(err, broker.ErrNotEnoughReplicas)
}
