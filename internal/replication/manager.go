package replication

import (
	"errors"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/eventlog"
	"repro/internal/metrics"
)

// Client is the transport a Manager pulls replication batches
// through. *wire.Client satisfies it over the network; tests
// and single-process fabrics use LocalClient, which dispatches into
// the fabric directly with identical semantics.
//
// Events a ReplicaFetch returns are appended to the follower's log,
// which keeps them: their Key/Value bytes must not be overwritten by
// a later fetch.
type Client interface {
	ReplicaFetch(follower int, topic string, partition int, epoch, offset int64, maxEvents, maxBytes int, wait time.Duration, buf *broker.FetchBuffer) (broker.ReplicaFetchResult, error)
}

// LocalClient is the in-process Client: replica fetches run against
// the local fabric's tracker without a wire round trip.
type LocalClient struct {
	F *broker.Fabric
}

// ReplicaFetch implements Client.
func (c LocalClient) ReplicaFetch(follower int, topic string, partition int, epoch, offset int64, maxEvents, maxBytes int, wait time.Duration, buf *broker.FetchBuffer) (broker.ReplicaFetchResult, error) {
	res, err := c.F.ReplicaFetch(follower, topic, partition, epoch, offset, maxEvents, maxBytes, wait, nil, buf.Events[:0])
	if err == nil {
		buf.Events = res.Events
	}
	return res, err
}

// Manager is the follower half of replication for one broker: a fetch
// loop per partition the broker follows, started and stopped as the
// controller's metadata changes (leadership moves, partitions grow,
// the broker itself is elected leader).
type Manager struct {
	f        *broker.Fabric
	brokerID int
	cli      Client
	cfg      Config

	// Pre-resolved follower-side instrumentation: the replica-fetch
	// round trip (fetch + local append) and per-round batch size,
	// observed only for data-carrying rounds so lapsed long polls do not
	// drown the distribution.
	hRtt   *metrics.BucketHist
	hBatch *metrics.BucketHist

	mu    sync.Mutex
	loops map[broker.TP]*fetchLoop
	stop  chan struct{}
	wg    sync.WaitGroup
}

// fetchLoop is one partition's running follower loop.
type fetchLoop struct {
	stop chan struct{}
}

// NewManager creates the replication manager for broker brokerID,
// pulling through cli.
func NewManager(f *broker.Fabric, brokerID int, cli Client, cfg Config) *Manager {
	cfg.fill()
	return &Manager{
		f: f, brokerID: brokerID, cli: cli, cfg: cfg,
		hRtt:   f.Metrics.BucketHist("replication.fetch_rtt_ns"),
		hBatch: f.Metrics.BucketHist("replication.fetch_batch_events"),
		loops:  make(map[broker.TP]*fetchLoop),
	}
}

// Start reconciles once and then keeps reconciling on every controller
// epoch bump until Stop.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.stop != nil {
		m.mu.Unlock()
		return
	}
	m.stop = make(chan struct{})
	stop := m.stop
	m.mu.Unlock()
	m.reconcile()
	ch, cancel := m.f.Ctl.WatchEpoch()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer cancel()
		for {
			select {
			case <-stop:
				return
			case <-ch:
				m.reconcile()
			}
		}
	}()
}

// Stop halts every fetch loop and the reconciler. The manager can be
// Started again (broker restart).
func (m *Manager) Stop() {
	m.mu.Lock()
	if m.stop == nil {
		m.mu.Unlock()
		return
	}
	close(m.stop)
	m.stop = nil
	loops := m.loops
	m.loops = make(map[broker.TP]*fetchLoop)
	m.mu.Unlock()
	for _, l := range loops {
		close(l.stop)
	}
	m.wg.Wait()
}

// follows reports whether this broker should be running a fetch loop
// for the partition: it hosts a replica, someone else leads, and the
// broker itself is up.
func (m *Manager) follows(tp broker.TP) (epoch int64, ok bool) {
	if n, up := m.f.Node(m.brokerID); !up || n.Down() {
		return 0, false
	}
	meta, err := m.f.Ctl.Topic(tp.Topic)
	if err != nil || tp.Partition >= len(meta.Partitions) {
		return 0, false
	}
	pm := &meta.Partitions[tp.Partition]
	if !pm.HasReplica(m.brokerID) || pm.Leader == m.brokerID || pm.Leader < 0 {
		return 0, false
	}
	return pm.LeaderEpoch, true
}

// reconcile aligns the running fetch loops with the current metadata.
func (m *Manager) reconcile() {
	m.mu.Lock()
	if m.stop == nil {
		m.mu.Unlock()
		return
	}
	want := make(map[broker.TP]bool)
	for _, topic := range m.f.Ctl.Topics() {
		meta, err := m.f.Ctl.Topic(topic)
		if err != nil {
			continue
		}
		for i := range meta.Partitions {
			tp := broker.TP{Topic: topic, Partition: i}
			if _, ok := m.follows(tp); ok {
				want[tp] = true
			}
		}
	}
	var stopLoops []*fetchLoop
	for tp, l := range m.loops {
		if !want[tp] {
			stopLoops = append(stopLoops, l)
			delete(m.loops, tp)
		}
	}
	for tp := range want {
		if m.loops[tp] == nil {
			l := &fetchLoop{stop: make(chan struct{})}
			m.loops[tp] = l
			m.wg.Add(1)
			go m.run(tp, l)
		}
	}
	m.mu.Unlock()
	for _, l := range stopLoops {
		close(l.stop)
	}
}

// sleep pauses the loop, returning false when it should exit.
func sleepOr(d time.Duration, stop chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}

// run is one partition's follower fetch loop: pull at the local log
// end, append preserving offsets, pull again. The next fetch's offset
// is the ack — the leader records it on arrival, before it long-polls —
// so a replicated batch costs one round trip. Epoch fencing and
// divergence reconcile in-line; the loop exits when reconciliation
// stops it.
func (m *Manager) run(tp broker.TP, l *fetchLoop) {
	defer m.wg.Done()
	buf := &broker.FetchBuffer{}
	epoch, ok := m.follows(tp)
	if !ok {
		return
	}
	// log is the local replica, resolved once: BrokerLog decodes the
	// topic's metadata document, too dear to pay every round. It is
	// re-resolved only after a failed append, fetch or truncate, or a
	// fencing — the moments a crash may have swapped the handle.
	var log *eventlog.Log
	for {
		select {
		case <-l.stop:
			return
		default:
		}
		if log == nil {
			var err error
			if log, err = m.f.BrokerLog(m.brokerID, tp.Topic, tp.Partition); err != nil {
				log = nil
				if !sleepOr(m.cfg.RetryBackoff, l.stop) {
					return
				}
				continue
			}
		}
		pos := log.EndOffset()
		t0 := time.Now()
		batch, err := m.cli.ReplicaFetch(m.brokerID, tp.Topic, tp.Partition, epoch, pos, m.cfg.MaxEvents, m.cfg.MaxBytes, m.cfg.FetchWait, buf)
		switch {
		case err == nil:
			if len(batch.Events) > 0 {
				if aerr := log.AppendReplicated(batch.Events); aerr != nil {
					log = nil
					if !sleepOr(m.cfg.RetryBackoff, l.stop) {
						return
					}
					continue
				}
				// The replicate round: wire fetch + local append. A round
				// that long-polled before data arrived includes that park,
				// so the low quantiles of a busy partition are the
				// meaningful replication-speed signal.
				m.hRtt.Observe(int64(time.Since(t0)))
				m.hBatch.Observe(int64(len(batch.Events)))
				continue
			}
			if batch.LogEnd < pos {
				// Diverged: this replica carries records the leader never
				// acked (an un-replicated tail from before a failover).
				// Truncate to the leader's end and re-fetch.
				if log.Truncate(batch.LogEnd) != nil {
					log = nil
				}
				continue
			}
			// Caught up (the long poll lapsed empty); loop re-fetches.
			// A LogStart above pos needs no action here: the next
			// fetch returns the post-gap records and AppendReplicated
			// rolls the local log over the gap.
		case errors.Is(err, broker.ErrFencedEpoch):
			// A newer leader exists. Adopt the new epoch; if the local
			// log diverged, the next fetch's LogEnd reconciles it.
			log = nil
			newEpoch, stillFollower := m.follows(tp)
			if !stillFollower {
				return
			}
			epoch = newEpoch
		default:
			// Leader unavailable, re-election in progress, transport
			// trouble: back off and retry. The epoch may have moved.
			log = nil
			if e, stillFollower := m.follows(tp); stillFollower {
				epoch = e
			} else {
				return
			}
			if !sleepOr(m.cfg.RetryBackoff, l.stop) {
				return
			}
		}
	}
}

// Lag reports the follower's local lag behind the leader for tp: the
// leader log end minus the local log end. Observability only.
func (m *Manager) Lag(tp broker.TP) (int64, error) {
	log, err := m.f.BrokerLog(m.brokerID, tp.Topic, tp.Partition)
	if err != nil {
		return 0, err
	}
	leader, _, err := m.f.LeaderLogInfo(tp.Topic, tp.Partition)
	if err != nil {
		return 0, err
	}
	lag := leader.EndOffset() - log.EndOffset()
	if lag < 0 {
		lag = 0
	}
	return lag, nil
}
