package wire

import (
	"fmt"
	"time"

	"repro/internal/broker"
	"repro/internal/event"
)

// Client methods for the inter-broker replication ops
// (FeatReplication). They ride the same metadata-driven router as the
// data plane — a replica fetch auto-dials the partition leader's
// advertised address, re-routes on ErrNotLeader, and waits out a
// re-election on ErrNoLeader — which is exactly what a follower's
// fetch loop needs across a failover. *Client thereby satisfies
// replication.Client, the transport of those loops.

// ReplicaFetch pulls a replication batch from the partition leader at
// offset (the follower's log end, which doubles as its ack), long-
// polling up to wait when the follower is caught up. Each response is
// read into a fresh arena that the caller owns from then on: decoded
// Key/Value bytes alias it and are never overwritten, so a follower log
// can keep the events as they are. buf recycles only the event slice;
// returned events are valid until the next call with the same buf, but
// the bytes they point at stay valid for good.
func (c *Client) ReplicaFetch(follower int, topic string, partition int, epoch, offset int64, maxEvents, maxBytes int, wait time.Duration, buf *broker.FetchBuffer) (broker.ReplicaFetchResult, error) {
	req := ReplicaFetchReq{
		Topic: topic, Partition: partition, Follower: follower,
		LeaderEpoch: epoch, Offset: offset,
		MaxEvents: maxEvents, MaxBytes: maxBytes,
		WaitMaxMS: int(wait / time.Millisecond),
	}
	var resp ReplicaFetchResp
	cl, err := c.dataCall(topic, partition, &req, &resp, nil, nil)
	if err != nil {
		return broker.ReplicaFetchResult{}, err
	}
	evs, pos, err := event.AppendUnmarshalBatch(buf.Events[:0], cl.data, resp.NumEvents)
	if err != nil {
		return broker.ReplicaFetchResult{}, fmt.Errorf("wire: %w", err)
	}
	if pos != len(cl.data) {
		return broker.ReplicaFetchResult{}, fmt.Errorf("wire: %d trailing bytes after %d events", len(cl.data)-pos, resp.NumEvents)
	}
	buf.Events = evs
	resp.Stamp(evs, topic, partition)
	return broker.ReplicaFetchResult{
		Events:        evs,
		LeaderEpoch:   resp.LeaderEpoch,
		HighWatermark: resp.HighWatermark,
		LogStart:      resp.LogStart,
		LogEnd:        resp.LogEnd,
	}, nil
}
