package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/clusternet"
	"repro/internal/event"
	"repro/internal/testbed"
	"repro/internal/wire"
)

// fixtureSpec is the part of the set-up a workload chooses. Everything
// else is fixed: three brokers, min ISR 2, ISR pull replication over
// the per-broker clusternet listeners, one topic at RF 3, and one
// producer and one consumer wire.Client with one connection per broker.
type fixtureSpec struct {
	topic      string
	partitions int
	// retention, when non-zero, is the topic retention, enforced by a
	// sweep of Fabric.EnforceRetention every sweep (the benchmark-side
	// equivalent of octopus-server -retention-sweep).
	retention, sweep time.Duration
	// linkDelay, when non-zero, puts a testbed.DelayProxy with this
	// one-way delay in front of every broker.
	linkDelay time.Duration
}

type fixture struct {
	spec    fixtureSpec
	fabric  *broker.Fabric
	cluster *clusternet.Cluster
	prodC   *wire.Client
	consC   *wire.Client
	statsC  *wire.Client // traced runs only
	serveNs int64

	closers   []func()
	stopSweep chan struct{}
	sweepDone sync.WaitGroup
}

// startFixture boots the cluster and its clients. withStats adds the
// client the traced run scrapes OpStats through.
func startFixture(spec fixtureSpec, withStats bool) (_ *fixture, err error) {
	fx := &fixture{spec: spec}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()
	f := broker.NewFabric(nil)
	f.MinInsyncReplicas = 2
	if err := f.AddBrokers(3, 2, 8); err != nil {
		return nil, err
	}
	fx.fabric = f
	opts := clusternet.Options{AllowAnonymous: true, Replication: true}
	if spec.linkDelay > 0 {
		opts.Advertise = func(_ int, bound string) (string, error) {
			addr, stop, err := testbed.DelayProxy(bound, spec.linkDelay)
			if err != nil {
				return "", err
			}
			fx.closers = append(fx.closers, stop)
			return addr, nil
		}
	}
	t0 := mono()
	cl, err := clusternet.Serve(f, opts)
	if err != nil {
		return nil, fmt.Errorf("clusternet.Serve: %w", err)
	}
	fx.serveNs = mono() - t0
	fx.cluster = cl
	fx.closers = append(fx.closers, cl.Close)
	// The clients connect before the topic exists. Dialing while topic
	// creation still bumps the metadata epoch can fail the handshake:
	// a pushed metadata frame may reach the client's reader before the
	// client has switched the connection to wire v2.
	for _, c := range []**wire.Client{&fx.prodC, &fx.consC, &fx.statsC} {
		if c == &fx.statsC && !withStats {
			continue
		}
		wc, err := wire.DialOptions(cl.Addr(0), wire.Options{Anonymous: true, PoolSize: 1})
		if err != nil {
			return nil, fmt.Errorf("dial: %w", err)
		}
		fx.closers = append(fx.closers, func() { wc.Close() })
		if !wc.RouterEnabled() {
			return nil, fmt.Errorf("wire client did not enable metadata routing")
		}
		*c = wc
	}
	cfg := cluster.TopicConfig{Partitions: spec.partitions, ReplicationFactor: 3, Retention: spec.retention}
	if _, err := f.CreateTopic(spec.topic, "", cfg); err != nil {
		return nil, fmt.Errorf("create topic: %w", err)
	}
	return fx, nil
}

// startSweeping runs the retention sweep while a window produces; it
// is a no-op for a topic without retention.
func (fx *fixture) startSweeping() {
	if fx.spec.retention == 0 {
		return
	}
	fx.stopSweep = make(chan struct{})
	fx.sweepDone.Add(1)
	go func() {
		defer fx.sweepDone.Done()
		t := time.NewTicker(fx.spec.sweep)
		defer t.Stop()
		for {
			select {
			case <-fx.stopSweep:
				return
			case <-t.C:
				fx.fabric.EnforceRetention()
			}
		}
	}()
}

// stopSweeping ends the retention sweep, so a window's checks read a
// log that no longer moves.
func (fx *fixture) stopSweeping() {
	if fx.stopSweep != nil {
		close(fx.stopSweep)
		fx.sweepDone.Wait()
		fx.stopSweep = nil
	}
}

// close tears everything down in reverse order and returns the memory
// to the OS, so a discarded set-up does not inflate the next one's.
func (fx *fixture) close() {
	fx.stopSweeping()
	for i := len(fx.closers) - 1; i >= 0; i-- {
		fx.closers[i]()
	}
	fx.closers = nil
	runtime.GC()
	debug.FreeOSMemory()
}

func (fx *fixture) allPartitions() []int {
	ps := make([]int, fx.spec.partitions)
	for i := range ps {
		ps[i] = i
	}
	return ps
}

// endOffsets reads every partition's log end through the wire client.
func (fx *fixture) endOffsets(c *wire.Client) (map[int]int64, error) {
	out := make(map[int]int64, fx.spec.partitions)
	for p := 0; p < fx.spec.partitions; p++ {
		o, err := c.EndOffset(fx.spec.topic, p)
		if err != nil {
			return nil, fmt.Errorf("end offset of partition %d: %w", p, err)
		}
		out[p] = o
	}
	return out, nil
}

// settle waits until every partition's high watermark equals its log
// end, i.e. the followers have caught up and their fetch loops are
// parked. It returns the number of partitions that did not settle.
func (fx *fixture) settle(timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		lagging := 0
		for p := 0; p < fx.spec.partitions; p++ {
			st, ok := fx.fabric.ReplicaStatusFor(fx.spec.topic, p)
			if !ok || !caughtUp(st) {
				lagging++
			}
		}
		if lagging == 0 || time.Now().After(deadline) {
			return lagging
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// warmUp produces one acks=all batch into every partition and reads
// each partition once over a fetch session, so routing tables, every
// broker connection and the followers' fetch loops are live before
// the window opens. Warm-up events are not workload events: windows
// start reading at the log end that follows them.
func (fx *fixture) warmUp() error {
	p := client.NewProducer(fx.prodC, fx.spec.topic, client.ProducerConfig{Acks: broker.AcksAll})
	for i := 0; i < 4*fx.spec.partitions; i++ {
		if err := p.Send(event.Event{Value: []byte("warm-up")}); err != nil {
			return err
		}
	}
	if err := p.Close(); err != nil {
		return fmt.Errorf("warm-up produce: %w", err)
	}
	cons := client.NewConsumer(fx.consC, client.ConsumerConfig{Start: client.StartEarliest})
	defer cons.Close()
	if err := cons.Assign(fx.spec.topic, fx.allPartitions()...); err != nil {
		return err
	}
	for range fx.spec.partitions {
		if _, err := cons.Poll(0); err != nil {
			return fmt.Errorf("warm-up poll: %w", err)
		}
	}
	if n := fx.settle(10 * time.Second); n > 0 {
		return fmt.Errorf("warm-up: %d partitions never reached HW = log end", n)
	}
	return nil
}

// caughtUp reports a partition whose high watermark, leader log end
// and both followers' log ends agree.
func caughtUp(st broker.ReplicaStatus) bool {
	if st.HighWatermark != st.LogEnd || len(st.Followers) != 2 {
		return false
	}
	for _, fs := range st.Followers {
		if fs.LogEnd != st.LogEnd {
			return false
		}
	}
	return true
}
