// Package broker implements the data plane of the Octopus event fabric:
// a cluster of broker nodes hosting replicated, partitioned commit logs
// with Kafka-compatible semantics — keyed partitioning, acks=0/1/all,
// high-watermark reads, consumer groups with committed offsets, leader
// failover, and per-topic ACL enforcement. It is the from-scratch
// replacement for the AWS MSK cluster of §IV-A.
package broker

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/eventlog"
	"repro/internal/metrics"
	"repro/internal/vclock"
	"repro/internal/zk"
)

// Acks is the producer acknowledgment level (§IV-F: "clients can
// configure the number of acknowledgments required").
type Acks int

// Acknowledgment levels.
const (
	// AcksNone returns before any broker has durably appended.
	AcksNone Acks = 0
	// AcksLeader returns once the partition leader has appended.
	AcksLeader Acks = 1
	// AcksAll returns once every in-sync replica has appended.
	AcksAll Acks = -1
)

func (a Acks) String() string {
	switch a {
	case AcksNone:
		return "0"
	case AcksLeader:
		return "1"
	case AcksAll:
		return "all"
	}
	return fmt.Sprintf("Acks(%d)", int(a))
}

// Errors returned by the data plane.
var (
	// ErrLeaderUnavailable reports a produce/fetch against a partition
	// whose leader is down and not yet re-elected.
	ErrLeaderUnavailable = errors.New("broker: partition leader unavailable")
	// ErrNoLeader reports a partition left leaderless (Leader = -1): no
	// in-sync replica survives to elect. It wraps ErrLeaderUnavailable so
	// existing errors.Is(err, ErrLeaderUnavailable) checks keep matching,
	// while routers can distinguish "leader moved, refetch metadata"
	// (ErrLeaderUnavailable alone) from "nobody to route to, back off
	// until a replica returns" (ErrNoLeader).
	ErrNoLeader = fmt.Errorf("no in-sync replica survives: %w", ErrLeaderUnavailable)
	// ErrBrokerDown reports an operation routed to a stopped broker.
	ErrBrokerDown = errors.New("broker: broker is down")
	// ErrNoPartition reports an out-of-range partition id.
	ErrNoPartition = errors.New("broker: no such partition")
	// ErrNotEnoughReplicas reports acks=all with too few in-sync replicas.
	ErrNotEnoughReplicas = errors.New("broker: not enough in-sync replicas")
	// ErrFencedEpoch reports a replica fetch carrying a stale
	// leader epoch: the partition elected a newer leader, and the caller
	// must refetch metadata, truncate to the new leader's log and retry.
	ErrFencedEpoch = errors.New("broker: fenced leader epoch")
	// ErrNoReplicator reports a replication op on a fabric without an
	// attached replication subsystem.
	ErrNoReplicator = errors.New("broker: replication not enabled")
)

// TP identifies a topic partition.
type TP struct {
	Topic     string
	Partition int
}

func (tp TP) String() string { return fmt.Sprintf("%s-%d", tp.Topic, tp.Partition) }

// Node is one broker: a host for partition replica logs.
type Node struct {
	ID      int
	Info    cluster.BrokerInfo
	session int64
	down    atomic.Bool

	mu   sync.RWMutex
	logs map[TP]*eventlog.Log
}

func newNode(info cluster.BrokerInfo) *Node {
	return &Node{ID: info.ID, Info: info, logs: make(map[TP]*eventlog.Log)}
}

// log returns (creating if needed) the replica log for tp. Nodes with a
// DataDir open file-backed logs under <dir>/<topic>-p<partition>,
// replaying any segment files a previous incarnation left behind.
func (n *Node) log(tp TP, cfg eventlog.Config) (*eventlog.Log, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.logs[tp]
	if !ok {
		if n.Info.DataDir != "" {
			cfg.Dir = filepath.Join(n.Info.DataDir, fmt.Sprintf("%s-p%d", tp.Topic, tp.Partition))
		}
		var err error
		l, err = eventlog.Open(cfg)
		if err != nil {
			return nil, fmt.Errorf("broker %d: open log %s: %w", n.ID, tp, err)
		}
		n.logs[tp] = l
	}
	return l, nil
}

// dropLogs abruptly discards the node's in-memory log state — the
// kill -9 half of a crash simulation. File-backed logs keep their
// segment files (reopened and replayed on recovery); purely in-memory
// logs lose everything, exactly like a real process death.
func (n *Node) dropLogs() {
	n.mu.Lock()
	logs := n.logs
	n.logs = make(map[TP]*eventlog.Log)
	n.mu.Unlock()
	for _, l := range logs {
		l.Close()
	}
}

func (n *Node) existingLog(tp TP) (*eventlog.Log, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	l, ok := n.logs[tp]
	return l, ok
}

// ReplicaLog returns the node's replica log for tp if it hosts one —
// exported so cluster tests and tools can probe per-broker replica
// state (catch-up progress, end offsets) directly.
func (n *Node) ReplicaLog(tp TP) (*eventlog.Log, bool) {
	return n.existingLog(tp)
}

// Down reports whether the node is stopped (failure injection).
func (n *Node) Down() bool { return n.down.Load() }

// SetAddr records the node's advertised wire address (and keeps it for
// re-registration on restart). The clusternet serving layer calls it
// once per broker after binding the broker's listener.
func (n *Node) SetAddr(addr string) {
	n.mu.Lock()
	n.Info.Addr = addr
	n.mu.Unlock()
}

// InfoCopy returns a consistent copy of the node's description.
func (n *Node) InfoCopy() cluster.BrokerInfo {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.Info
}

// Fabric is the assembled event fabric: controller + broker nodes +
// group coordinator + security. All client-facing operations go through
// Fabric methods; the wire layer (internal/wire) and the SDK
// (internal/client) are thin shims over them.
type Fabric struct {
	Reg   *zk.Registry
	Ctl   *cluster.Controller
	ACL   *auth.ACLStore
	Auth  *auth.Service
	Clock vclock.Clock

	mu    sync.RWMutex
	nodes map[int]*Node

	// routes caches per-topic routing tables (decoded metadata + leader
	// log handles), keyed by the controller's metadata epoch; see route.go.
	routes sync.Map // map[string]*topicRoute
	// routePruned is the last epoch at which deleted topics were swept
	// out of the route cache.
	routePruned atomic.Int64

	Groups  *Coordinator
	Metrics *metrics.Registry
	// Quotas enforces per-identity produce rate limits (§VII-C).
	Quotas *Quotas

	// MinInsyncReplicas is the minimum ISR size accepted by acks=all
	// produces (Kafka's min.insync.replicas; default 1).
	MinInsyncReplicas int

	// repl is the attached inter-broker replication subsystem (nil when
	// the fabric runs in the single-process mode, where replication is a
	// synchronous in-process append). Stored atomically: produce reads
	// it per call.
	repl atomic.Value // Replicator
	// tiered serves reads below the local log start from archived
	// segments (nil = no tiered storage attached).
	tiered atomic.Value // TieredReader

	// Hot-path counters, resolved once so produce/fetch skip the
	// registry's name lookup (and its mutex) per call.
	cProduced    *metrics.Counter
	cFetched     *metrics.Counter
	cRateLimited *metrics.Counter

	// hot is the pre-resolved hot-path histogram set (nil = hot-path
	// metrics disabled, the baseline the instrumentation-overhead gate
	// compares against). Stored atomically so it can be toggled without
	// racing in-flight produces.
	hot atomic.Pointer[fabricHot]
	// tracer samples 1-in-N per-partition produces into a stage-trace
	// ring; see trace.go.
	tracer *ProduceTracer
}

// fabricHot is the fabric's pre-resolved hot-path metric handles: the
// data plane touches these raw pointers only, never a registry map or
// mutex. Latencies are nanoseconds, sizes are events or payload bytes.
type fabricHot struct {
	produceNs    *metrics.BucketHist // fabric.produce_ns
	produceBatch *metrics.BucketHist // fabric.produce_batch_events
	appendNs     *metrics.BucketHist // fabric.append_ns
	commitWaitNs *metrics.BucketHist // fabric.commit_wait_ns
	fetchNs      *metrics.BucketHist // fabric.fetch_ns
	fetchBatch   *metrics.BucketHist // fabric.fetch_batch_events
	bytesIn      *metrics.Counter    // fabric.bytes_in
	bytesOut     *metrics.Counter    // fabric.bytes_out
	// Eventlog-level observers, attached to partition logs at
	// route-build time (eventlog.Config.AppendLatency / AppendBytes).
	logAppendNs    *metrics.BucketHist // eventlog.append_ns
	logAppendBytes *metrics.BucketHist // eventlog.append_bytes
}

func newFabricHot(r *metrics.Registry) *fabricHot {
	return &fabricHot{
		produceNs:      r.BucketHist("fabric.produce_ns"),
		produceBatch:   r.BucketHist("fabric.produce_batch_events"),
		appendNs:       r.BucketHist("fabric.append_ns"),
		commitWaitNs:   r.BucketHist("fabric.commit_wait_ns"),
		fetchNs:        r.BucketHist("fabric.fetch_ns"),
		fetchBatch:     r.BucketHist("fabric.fetch_batch_events"),
		bytesIn:        r.Counter("fabric.bytes_in"),
		bytesOut:       r.Counter("fabric.bytes_out"),
		logAppendNs:    r.BucketHist("eventlog.append_ns"),
		logAppendBytes: r.BucketHist("eventlog.append_bytes"),
	}
}

// SetHotPathMetrics enables or disables the hot-path histogram set.
// Disabling exists for the instrumentation-overhead gate (and for
// callers that want the last fraction of a percent back); counters
// like fabric.produced stay on either way. Logs opened while disabled
// carry no eventlog observers until their route is rebuilt.
func (f *Fabric) SetHotPathMetrics(enabled bool) {
	if enabled {
		f.hot.Store(newFabricHot(f.Metrics))
	} else {
		f.hot.Store(nil)
	}
	// Force route rebuilds so eventlog observer wiring follows suit.
	f.routes.Range(func(k, _ any) bool {
		f.routes.Delete(k)
		return true
	})
}

// Tracer returns the fabric's produce stage tracer.
func (f *Fabric) Tracer() *ProduceTracer { return f.tracer }

// NewFabric assembles a fabric over a fresh registry.
func NewFabric(clock vclock.Clock) *Fabric {
	if clock == nil {
		clock = vclock.Real{}
	}
	reg := zk.NewRegistry()
	f := &Fabric{
		Reg:               reg,
		Ctl:               cluster.NewController(reg, clock),
		ACL:               auth.NewACLStore(reg),
		Auth:              auth.NewService(clock, 0),
		Clock:             clock,
		nodes:             make(map[int]*Node),
		Metrics:           metrics.NewRegistry(),
		Quotas:            NewQuotas(clock),
		MinInsyncReplicas: 1,
	}
	f.Groups = NewCoordinator(f)
	f.cProduced = f.Metrics.Counter("fabric.produced")
	f.cFetched = f.Metrics.Counter("fabric.fetched")
	f.cRateLimited = f.Metrics.Counter("fabric.rate_limited")
	f.hot.Store(newFabricHot(f.Metrics))
	f.tracer = newProduceTracer(defaultTraceEvery, defaultTraceRing)
	return f
}

// AddBroker registers and starts a broker node.
func (f *Fabric) AddBroker(info cluster.BrokerInfo) (*Node, error) {
	n := newNode(info)
	sess, err := f.Ctl.RegisterBroker(info)
	if err != nil {
		return nil, err
	}
	n.session = sess
	f.mu.Lock()
	f.nodes[info.ID] = n
	f.mu.Unlock()
	return n, nil
}

// AddBrokers registers n identical brokers with ids 0..n-1.
func (f *Fabric) AddBrokers(n, vcpus, memGB int) error {
	for i := 0; i < n; i++ {
		if _, err := f.AddBroker(cluster.BrokerInfo{ID: i, VCPUs: vcpus, MemGB: memGB}); err != nil {
			return err
		}
	}
	return nil
}

// Node returns the broker with the given id.
func (f *Fabric) Node(id int) (*Node, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, ok := f.nodes[id]
	return n, ok
}

// NodeIDs returns the ids of every broker ever added (up or down),
// sorted.
func (f *Fabric) NodeIDs() []int {
	f.mu.RLock()
	ids := make([]int, 0, len(f.nodes))
	for id := range f.nodes {
		ids = append(ids, id)
	}
	f.mu.RUnlock()
	sort.Ints(ids)
	return ids
}

// PartitionLeader resolves the partition's current leader broker id
// through the epoch-keyed route cache (no registry read on the hot
// path). A leaderless partition returns -1 with ErrLeaderUnavailable.
// The per-broker wire servers use it to refuse misrouted data-plane
// requests with ErrNotLeader instead of silently serving them.
func (f *Fabric) PartitionLeader(topic string, partition int) (int, error) {
	rt, err := f.route(topic)
	if err != nil {
		return -1, err
	}
	if partition < 0 || partition >= len(rt.parts) {
		return -1, fmt.Errorf("%w: %s/%d", ErrNoPartition, topic, partition)
	}
	id := rt.parts[partition].leaderID
	if id < 0 {
		return -1, fmt.Errorf("%w: %s/%d", ErrNoLeader, topic, partition)
	}
	return id, nil
}

// BrokerStatus is one broker's entry in a cluster snapshot.
type BrokerStatus struct {
	Info cluster.BrokerInfo
	Up   bool
}

// ClusterSnapshot is the cluster-wide metadata document served by the
// wire layer's OpMetadata: the epoch it was built at, every broker the
// fabric knows (including down ones, so clients can tell "gone" from
// "never existed") and the requested topics' full placement.
type ClusterSnapshot struct {
	Epoch   int64
	Brokers []BrokerStatus
	Topics  []*cluster.TopicMeta
}

// ClusterSnapshot builds the metadata document for the given topics
// (nil or empty = every topic). The epoch is read before the content,
// the same ordering route-cache builds use: a concurrent mutation can
// only make the snapshot look older than it is, so a client keying its
// routing table by the epoch re-fetches rather than trusting stale
// state.
func (f *Fabric) ClusterSnapshot(topics []string) ClusterSnapshot {
	snap := ClusterSnapshot{Epoch: f.Ctl.Epoch()}
	for _, id := range f.NodeIDs() {
		n, ok := f.Node(id)
		if !ok {
			continue
		}
		snap.Brokers = append(snap.Brokers, BrokerStatus{Info: n.InfoCopy(), Up: !n.Down()})
	}
	if len(topics) == 0 {
		topics = f.Ctl.Topics()
	}
	for _, t := range topics {
		meta, err := f.Ctl.Topic(t)
		if err != nil {
			continue // deleted or unknown: simply absent from the response
		}
		snap.Topics = append(snap.Topics, meta)
	}
	return snap
}

// logConfig derives the storage config for a topic.
func logConfig(cfg cluster.TopicConfig) eventlog.Config {
	lc := eventlog.DefaultConfig()
	lc.Retention = cfg.Retention
	lc.Compact = cfg.Compact
	return lc
}

// CreateTopic provisions a topic and grants the owner full permissions,
// combining the controller assignment with the ACL bootstrap that the
// OWS PUT /topic/<topic> route performs.
func (f *Fabric) CreateTopic(name, owner string, cfg cluster.TopicConfig) (*cluster.TopicMeta, error) {
	meta, err := f.Ctl.CreateTopic(name, owner, cfg)
	if err != nil {
		return nil, err
	}
	if owner != "" {
		if err := f.ACL.Grant(name, owner); err != nil {
			return nil, err
		}
	}
	return meta, nil
}

// partitionFor picks the partition for an event: keyed events hash their
// key (stable routing, per-key ordering); unkeyed events round-robin.
var rrCounter atomic.Uint64

func partitionFor(ev *event.Event, parts int) int {
	if parts <= 1 {
		return 0
	}
	if len(ev.Key) > 0 {
		// Shared with the leader-direct wire client's pre-partitioning:
		// both sides MUST place a key identically or client-side
		// bucketing misroutes.
		return PartitionForKey(ev.Key, parts)
	}
	return int(rrCounter.Add(1) % uint64(parts))
}

// Produce appends events to a topic. partition < 0 selects per event by
// key hash / round-robin. identity is checked for WRITE permission
// unless empty (trusted in-process caller). It returns the base offset
// of the first appended event on the (single) chosen partition when all
// events map to one partition, else the offset of the last append.
func (f *Fabric) Produce(identity, topic string, partition int, evs []event.Event, acks Acks) (int64, error) {
	return f.produce(identity, topic, partition, evs, acks, false)
}

// ProduceDonated is Produce for callers that donate ownership of the
// events' underlying buffers to the fabric: the Key/Value bytes are
// stored as-is (no arena clone), so the caller must never modify or
// reuse them afterwards — they live as long as the retained log records.
// The wire server uses it to hand a decoded produce frame straight to
// the log, deleting the second copy the seed made per remote produce.
func (f *Fabric) ProduceDonated(identity, topic string, partition int, evs []event.Event, acks Acks) (int64, error) {
	return f.produce(identity, topic, partition, evs, acks, true)
}

func (f *Fabric) produce(identity, topic string, partition int, evs []event.Event, acks Acks, donated bool) (int64, error) {
	if len(evs) == 0 {
		return 0, nil
	}
	h := f.hot.Load()
	var t0 time.Time
	if h != nil {
		t0 = time.Now()
	}
	if identity != "" {
		if err := f.ACL.Check(topic, identity, auth.PermWrite); err != nil {
			return 0, err
		}
	}
	if err := f.Quotas.Admit(identity, len(evs)); err != nil {
		f.cRateLimited.Add(int64(len(evs)))
		return 0, err
	}
	rt, err := f.route(topic)
	if err != nil {
		return 0, err
	}
	parts := rt.meta.Config.Partitions
	if partition >= parts {
		return 0, fmt.Errorf("%w: %s/%d", ErrNoPartition, topic, partition)
	}
	// Route each event, then deep-copy the whole batch through one
	// contiguous arena into pooled per-partition buckets: the seed's
	// per-call partition map and per-event Clone were the produce path's
	// dominant allocations. Donated batches skip the copy entirely —
	// their bytes already belong to the fabric.
	sc := scratchPool.Get().(*produceScratch)
	sc.prepare(len(evs), parts)
	for i := range evs {
		p := partition
		if p < 0 {
			// Always in [0, parts): normalize() guarantees parts >= 1.
			p = partitionFor(&evs[i], parts)
		}
		sc.pidx[i] = p
	}
	if donated {
		bucketDonated(evs, sc.pidx, rt.meta.Name, sc)
	} else {
		arenaClone(evs, sc.pidx, rt.meta.Name, sc)
	}
	var base int64 = -1
	for _, p := range sc.order {
		off, err := f.producePartition(rt, p, sc.buckets[p], acks, h)
		if err != nil {
			sc.release()
			return 0, err
		}
		if base < 0 {
			base = off
		}
	}
	sc.release()
	f.cProduced.Add(int64(len(evs)))
	if h != nil {
		var nb int64
		for i := range evs {
			nb += int64(len(evs[i].Key) + len(evs[i].Value))
		}
		h.bytesIn.Add(nb)
		h.produceBatch.Observe(int64(len(evs)))
		h.produceNs.Observe(int64(time.Since(t0)))
	}
	return base, nil
}

func (f *Fabric) producePartition(rt *topicRoute, p int, evs []event.Event, acks Acks, h *fabricHot) (int64, error) {
	pr := &rt.parts[p]
	if pr.leaderID < 0 || pr.leader == nil {
		return 0, fmt.Errorf("%w: %s/%d", ErrNoLeader, rt.meta.Name, p)
	}
	if pr.leader.Down() {
		return 0, fmt.Errorf("%w: %s/%d leader %d", ErrLeaderUnavailable, rt.meta.Name, p, pr.leaderID)
	}
	if acks == AcksAll && pr.isr < f.MinInsyncReplicas {
		return 0, fmt.Errorf("%w: isr=%d min=%d", ErrNotEnoughReplicas, pr.isr, f.MinInsyncReplicas)
	}
	// Stage timestamps are captured when hot-path histograms are on or
	// this call drew the 1-in-N trace sample; the common disabled path
	// pays one atomic increment and no clock reads.
	sampled := f.tracer.shouldSample()
	var t0, tAppend, tRepl time.Time
	if h != nil || sampled {
		t0 = time.Now()
	}
	now := f.Clock.Now()
	base, err := pr.log.AppendBatch(evs, now)
	if err != nil {
		return 0, err
	}
	if h != nil || sampled {
		tAppend = time.Now()
		if h != nil {
			h.appendNs.Observe(int64(tAppend.Sub(t0)))
		}
		tRepl = tAppend
	}
	if r := f.Replicator(); r != nil {
		// Wire replication: followers pull this batch over
		// OpReplicaFetch. The leader's append advances its own entry in
		// the high-watermark accounting; acks=all waits for the HW to
		// pass the batch (every ISR member replicated it) instead of
		// copying to follower logs in-process.
		tp := TP{Topic: rt.meta.Name, Partition: p}
		end := base + int64(len(evs))
		r.LeaderAppended(tp, end)
		if acks == AcksAll {
			if err := r.WaitCommitted(tp, end-1); err != nil {
				return 0, fmt.Errorf("broker: replicate %s-%d: %w", rt.meta.Name, p, err)
			}
			if h != nil || sampled {
				tRepl = time.Now()
				if h != nil {
					h.commitWaitNs.Observe(int64(tRepl.Sub(tAppend)))
				}
			}
		}
		if sampled {
			f.recordTrace(t0, tAppend, tRepl, len(evs), acks)
		}
		return base, nil
	}
	// Single-process mode: replicate to in-sync followers synchronously
	// within the produce call — followers apply the same batch at the
	// same offsets, so logs stay identical and failover is lossless for
	// acks>=1 produces. The follower handles were resolved at
	// route-build time; any ISR change bumps the metadata epoch and
	// rebuilds the route before the next call.
	for _, fl := range pr.followers {
		if _, err := fl.AppendBatch(evs, now); err != nil {
			return 0, fmt.Errorf("broker: replicate %s-%d: %w", rt.meta.Name, p, err)
		}
	}
	if len(pr.followers) > 0 && (h != nil || sampled) {
		tRepl = time.Now()
		if h != nil {
			h.commitWaitNs.Observe(int64(tRepl.Sub(tAppend)))
		}
	}
	if sampled {
		f.recordTrace(t0, tAppend, tRepl, len(evs), acks)
	}
	return base, nil
}

// recordTrace files one sampled produce into the stage-trace ring.
// tAppend/tRepl may be zero when hot metrics were off and the clock
// reads were skipped mid-path; they degrade to zero-length stages.
func (f *Fabric) recordTrace(t0, tAppend, tRepl time.Time, events int, acks Acks) {
	rec := TraceRecord{StartUnixNano: t0.UnixNano(), Events: int32(events), Acks: int8(acks)}
	if !tAppend.IsZero() {
		rec.StageNs[StageAppend] = int64(tAppend.Sub(t0))
		rec.StageNs[StageReplicate] = int64(tRepl.Sub(tAppend))
		rec.StageNs[StageAck] = int64(time.Since(tRepl))
	}
	f.tracer.record(rec)
}

// FetchResult is the response to a Fetch.
type FetchResult struct {
	Events []event.Event
	// HighWatermark is the end offset of the partition at read time.
	HighWatermark int64
	// StartOffset is the earliest retained offset (reads below it fail).
	StartOffset int64
}

// FetchBuffer is a reusable consume-side receive buffer: a byte arena
// that wire transports read response payloads into, and an event slice
// that fetches decode into. A fetch session owns one per partition and
// hands it back on every poll, so the steady-state consume path stops
// allocating once the buffer has grown to the workload's batch size.
// Contents are valid only until the buffer's next use.
type FetchBuffer struct {
	// Arena receives the raw response payload (wire transports only);
	// decoded events alias it.
	Arena []byte
	// Events is the reused result slice.
	Events []event.Event
}

// Fetch reads up to maxEvents events (and at most maxBytes payload bytes,
// if > 0) from the partition starting at offset. identity is checked for
// READ permission unless empty. The byte budget follows Log.ReadBytes
// semantics: at least one event is returned when any is available, and
// only the first event may exceed the budget.
func (f *Fabric) Fetch(identity, topic string, partition int, offset int64, maxEvents, maxBytes int) (FetchResult, error) {
	return f.fetch(identity, topic, partition, offset, maxEvents, maxBytes, nil)
}

// FetchInto is Fetch appending into dst (reusing its capacity) — the
// in-process half of the consumer's zero-copy fetch session. Callers
// pass dst with len 0; the returned FetchResult.Events is the grown
// slice, whose events alias the partition log's records.
func (f *Fabric) FetchInto(identity, topic string, partition int, offset int64, maxEvents, maxBytes int, dst []event.Event) (FetchResult, error) {
	if dst == nil {
		dst = []event.Event{}
	}
	return f.fetch(identity, topic, partition, offset, maxEvents, maxBytes, dst)
}

func (f *Fabric) fetch(identity, topic string, partition int, offset int64, maxEvents, maxBytes int, dst []event.Event) (FetchResult, error) {
	h := f.hot.Load()
	var t0 time.Time
	if h != nil {
		t0 = time.Now()
	}
	if identity != "" {
		if err := f.ACL.Check(topic, identity, auth.PermRead); err != nil {
			return FetchResult{}, err
		}
	}
	pr, err := f.partitionRoute(topic, partition)
	if err != nil {
		return FetchResult{}, err
	}
	if maxEvents <= 0 {
		maxEvents = 1 << 20
	}
	evs, err := pr.log.ReadBudgetInto(offset, maxEvents, maxBytes, dst)
	if err != nil {
		// An offset below local retention may still live in the archive
		// tier: serve it from there instead of failing the consumer.
		return f.tieredFetch(pr, topic, partition, offset, maxEvents, maxBytes, dst, err)
	}
	f.cFetched.Add(int64(len(evs)))
	if h != nil {
		var nb int64
		for i := range evs {
			nb += int64(len(evs[i].Key) + len(evs[i].Value))
		}
		h.bytesOut.Add(nb)
		h.fetchBatch.Observe(int64(len(evs)))
		h.fetchNs.Observe(int64(time.Since(t0)))
	}
	res := FetchResult{Events: evs, HighWatermark: pr.log.EndOffset(), StartOffset: pr.log.StartOffset()}
	if r := f.Replicator(); r != nil {
		if hw, ok := r.HighWatermark(TP{Topic: topic, Partition: partition}); ok {
			res.HighWatermark = hw
		}
	}
	return res, nil
}

// FetchWaitInto is FetchInto with a long-poll: when the partition has
// nothing at offset, it parks on the leader log's tail waiter for up to
// wait (or until stop closes) and retries once after waking — one
// blocked goroutine instead of a fetch loop against an empty partition.
// A wait of zero degenerates to FetchInto. The wire server's streaming
// fetch pumps and WaitMaxMS long-polls, and the Direct transport's
// long-poll extension, all ride this.
func (f *Fabric) FetchWaitInto(identity, topic string, partition int, offset int64, maxEvents, maxBytes int, wait time.Duration, stop <-chan struct{}, dst []event.Event) (FetchResult, error) {
	res, err := f.fetch(identity, topic, partition, offset, maxEvents, maxBytes, dst)
	if err != nil || len(res.Events) > 0 || wait <= 0 {
		return res, err
	}
	pr, err := f.partitionRoute(topic, partition)
	if err != nil {
		return FetchResult{}, err
	}
	end, werr := pr.log.WaitAppend(offset, wait, stop)
	if werr != nil || end <= offset {
		// Log closed, timeout, or stop: report the empty result; the
		// caller's next poll (or teardown) takes it from here.
		return res, nil
	}
	return f.fetch(identity, topic, partition, offset, maxEvents, maxBytes, dst)
}

// LeaderLog returns the leader replica's log for a partition — the
// handle behind fetch-side offset queries, exported so tests and tools
// can probe log-level state (read counts, tail waiters) directly.
func (f *Fabric) LeaderLog(topic string, partition int) (*eventlog.Log, error) {
	pr, err := f.partitionRoute(topic, partition)
	if err != nil {
		return nil, err
	}
	return pr.log, nil
}

// EndOffset returns the partition's end offset (the next offset to be
// assigned), i.e. the "latest" consume position.
func (f *Fabric) EndOffset(topic string, partition int) (int64, error) {
	l, err := f.LeaderLog(topic, partition)
	if err != nil {
		return 0, err
	}
	return l.EndOffset(), nil
}

// StartOffset returns the earliest retained offset.
func (f *Fabric) StartOffset(topic string, partition int) (int64, error) {
	l, err := f.LeaderLog(topic, partition)
	if err != nil {
		return 0, err
	}
	return l.StartOffset(), nil
}

// OffsetForTime returns the first offset at or after t (§IV-F: consume
// "after a certain timestamp").
func (f *Fabric) OffsetForTime(topic string, partition int, t time.Time) (int64, error) {
	l, err := f.LeaderLog(topic, partition)
	if err != nil {
		return 0, err
	}
	return l.OffsetForTime(t), nil
}

// PendingEvents returns the total backlog (end offset minus committed
// group offset) across all partitions — the "processing pressure" the
// trigger autoscaler evaluates (§IV-D).
func (f *Fabric) PendingEvents(topic, group string) (int64, error) {
	meta, err := f.Ctl.Topic(topic)
	if err != nil {
		return 0, err
	}
	var total int64
	for p := 0; p < meta.Config.Partitions; p++ {
		end, err := f.EndOffset(topic, p)
		if err != nil {
			continue // leaderless partitions contribute no backlog info
		}
		committed := f.Groups.Committed(group, topic, p)
		if committed < 0 {
			committed = 0
		}
		if end > committed {
			total += end - committed
		}
	}
	return total, nil
}

// EnforceRetention applies retention to every replica log; brokers run
// this periodically. It returns total records deleted.
func (f *Fabric) EnforceRetention() int {
	now := f.Clock.Now()
	f.mu.RLock()
	nodes := make([]*Node, 0, len(f.nodes))
	for _, n := range f.nodes {
		nodes = append(nodes, n)
	}
	f.mu.RUnlock()
	deleted := 0
	for _, n := range nodes {
		n.mu.RLock()
		logs := make([]*eventlog.Log, 0, len(n.logs))
		for _, l := range n.logs {
			logs = append(logs, l)
		}
		n.mu.RUnlock()
		for _, l := range logs {
			deleted += l.EnforceRetention(now)
		}
	}
	return deleted
}

// CompactAll runs key compaction on every compaction-enabled topic's
// replica logs (the topic "cleanup policy" of §IV-F). It returns total
// records removed.
func (f *Fabric) CompactAll() int {
	removed := 0
	for _, topic := range f.Ctl.Topics() {
		meta, err := f.Ctl.Topic(topic)
		if err != nil || !meta.Config.Compact {
			continue
		}
		for p := 0; p < meta.Config.Partitions; p++ {
			for _, r := range meta.Partitions[p].Replicas {
				n, ok := f.Node(r)
				if !ok {
					continue
				}
				if l, ok := n.existingLog(TP{Topic: topic, Partition: p}); ok {
					removed += l.Compact()
				}
			}
		}
	}
	return removed
}

// StopBroker simulates a broker failure: the node stops serving, its
// registry session expires, and the controller re-elects leaders.
func (f *Fabric) StopBroker(id int) error {
	n, ok := f.Node(id)
	if !ok {
		return fmt.Errorf("broker: unknown broker %d", id)
	}
	n.down.Store(true)
	f.Reg.ExpireSession(n.session)
	f.Ctl.HandleBrokerFailure(id)
	f.Metrics.Counter("fabric.broker_failures").Inc()
	return nil
}

// RestartBroker brings a stopped broker back: it catches its replicas up
// from the current leaders, re-registers, and rejoins ISR sets.
func (f *Fabric) RestartBroker(id int) error {
	n, ok := f.Node(id)
	if !ok {
		return fmt.Errorf("broker: unknown broker %d", id)
	}
	if !n.Down() {
		return nil
	}
	// Catch up every replica this node hosts from the current leader.
	for _, topic := range f.Ctl.Topics() {
		meta, err := f.Ctl.Topic(topic)
		if err != nil {
			continue
		}
		for _, pm := range meta.Partitions {
			if !pm.HasReplica(id) || pm.Leader < 0 || pm.Leader == id {
				continue
			}
			tp := TP{Topic: topic, Partition: pm.ID}
			leader, ok := f.Node(pm.Leader)
			if !ok || leader.Down() {
				continue
			}
			src, ok := leader.existingLog(tp)
			if !ok {
				continue
			}
			dst, err := n.log(tp, logConfig(meta.Config))
			if err != nil {
				return fmt.Errorf("broker: catch-up %s on %d: %w", tp, id, err)
			}
			from := dst.EndOffset()
			if start := src.StartOffset(); from < start {
				from = start
			}
			missing, err := src.Read(from, 1<<30)
			if err != nil {
				continue
			}
			if len(missing) > 0 {
				if _, err := dst.AppendBatch(missing, f.Clock.Now()); err != nil {
					return fmt.Errorf("broker: catch-up %s on %d: %w", tp, id, err)
				}
			}
		}
	}
	sess, err := f.Ctl.RegisterBroker(n.InfoCopy())
	if err != nil {
		return err
	}
	n.session = sess
	n.down.Store(false)
	f.Ctl.HandleBrokerRecovery(id)
	return nil
}
