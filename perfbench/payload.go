package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"sync"
	"time"
)

// Payload layout. Every event the benchmark produces is generated from
// the workload seed and carries what the consuming side needs to check
// it without any shared state:
//
//	[0:8)     due time, ns on the benchmark's monotonic clock
//	[8:16)    sequence number
//	[16:n-8)  body: a seed-selected slice of the seed's byte pool
//	[n-8:n-4) CRC-32C of [0:n-8), seeded from the workload seed
//	[n-4:n)   seed tag
const (
	payloadHeader  = 16
	payloadTrailer = 8
	minPayload     = payloadHeader + payloadTrailer
	poolBytes      = 1 << 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// epoch anchors the benchmark's monotonic clock: due times and receive
// times are nanoseconds since process start, immune to wall-clock steps.
var epoch = time.Now()

func mono() int64 { return int64(time.Since(epoch)) }

// splitmix is SplitMix64, used to derive per-sequence choices from the
// seed without keeping generator state per event.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// gen makes and checks a workload's events. It is immutable after
// newGen, so generators and the consumer share one.
type gen struct {
	seed    uint64
	size    int
	crcInit uint32
	tag     uint32
	pool    []byte
	keys    [][]byte // nil for unkeyed workloads
}

func newGen(seed int64, size, keys int) *gen {
	if size < minPayload {
		panic(fmt.Sprintf("payload size %d below %d", size, minPayload))
	}
	s := uint64(seed)
	g := &gen{
		seed:    s,
		size:    size,
		crcInit: uint32(splitmix(s ^ 0xc2c)),
		tag:     uint32(splitmix(s ^ 0x7a9)),
		pool:    make([]byte, poolBytes+size),
	}
	r := rand.New(rand.NewPCG(s, s^0x5eed))
	for i := 0; i+8 <= len(g.pool); i += 8 {
		binary.LittleEndian.PutUint64(g.pool[i:], r.Uint64())
	}
	for i := 0; i < keys; i++ {
		g.keys = append(g.keys, []byte(fmt.Sprintf("instrument-%02d", i)))
	}
	return g
}

// key returns the seed-drawn key of event seq, nil when unkeyed.
func (g *gen) key(seq uint64) []byte {
	if g.keys == nil {
		return nil
	}
	return g.keys[splitmix(g.seed^(seq<<1|1))%uint64(len(g.keys))]
}

// fill writes event seq with the given due time into buf (len g.size).
func (g *gen) fill(buf []byte, seq uint64, due int64) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(due))
	binary.LittleEndian.PutUint64(buf[8:], seq)
	body := buf[payloadHeader : g.size-payloadTrailer]
	off := splitmix(g.seed^seq<<1) % uint64(poolBytes)
	copy(body, g.pool[off:])
	n := g.size - payloadTrailer
	binary.LittleEndian.PutUint32(buf[n:], crc32.Update(g.crcInit, castagnoli, buf[:n]))
	binary.LittleEndian.PutUint32(buf[n+4:], g.tag)
}

// check verifies a received payload and returns its sequence number
// and due time; ok is false for a payload that is not intact.
func (g *gen) check(v []byte) (seq uint64, due int64, ok bool) {
	if len(v) != g.size {
		return 0, 0, false
	}
	n := g.size - payloadTrailer
	if binary.LittleEndian.Uint32(v[n+4:]) != g.tag ||
		binary.LittleEndian.Uint32(v[n:]) != crc32.Update(g.crcInit, castagnoli, v[:n]) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(v[8:]), int64(binary.LittleEndian.Uint64(v[0:])), true
}

// stamp reads the due time and sequence number of a payload the
// benchmark generated itself (no integrity check: used on the produce
// side, where the bytes never left the process).
func stamp(v []byte) (seq uint64, due int64) {
	return binary.LittleEndian.Uint64(v[8:]), int64(binary.LittleEndian.Uint64(v[0:]))
}

// bufPool recycles payload buffers once the batch carrying them has
// been acknowledged, so the generator's own allocations stay out of
// the per-event allocation metrics.
type bufPool struct {
	size int
	mu   sync.Mutex
	free [][]byte
}

func (p *bufPool) get() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b
	}
	return make([]byte, p.size)
}

func (p *bufPool) put(b []byte) {
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// ledger checks exactly-once, intact delivery of sequence numbers and
// per-partition offset contiguity. One goroutine owns it.
type ledger struct {
	g       *gen
	seen    []uint8
	start   map[int]int64 // partition -> first workload offset
	next    map[int]int64 // partition -> next expected offset
	dup     int64
	corrupt int64
	gaps    int64
	got     int64
}

func newLedger(g *gen, expect int, start map[int]int64) *ledger {
	l := &ledger{g: g, seen: make([]uint8, 0, expect), start: start, next: make(map[int]int64, len(start))}
	l.reset()
	return l
}

// reset forgets every delivery, for another pass over the same events.
func (l *ledger) reset() {
	clear(l.seen)
	for p, o := range l.start {
		l.next[p] = o
	}
	l.dup, l.corrupt, l.gaps, l.got = 0, 0, 0, 0
}

// record checks one delivered event; it returns its due time and
// whether it was a first, intact delivery. Events below a partition's
// start offset (the set-up's warm-up events) are skipped.
func (l *ledger) record(partition int, offset int64, v []byte) (int64, bool) {
	if offset < l.start[partition] {
		return 0, false
	}
	if want, ok := l.next[partition]; !ok || offset != want {
		l.gaps++
	}
	l.next[partition] = offset + 1
	seq, due, ok := l.g.check(v)
	if !ok {
		l.corrupt++
		return 0, false
	}
	for uint64(len(l.seen)) <= seq {
		l.seen = append(l.seen, 0)
	}
	l.seen[seq]++
	if l.seen[seq] > 1 {
		l.dup++
		return 0, false
	}
	l.got++
	return due, true
}

// missing counts sequence numbers in [0, n) never delivered.
func (l *ledger) missing(n int64) int64 {
	var m int64
	for s := int64(0); s < n; s++ {
		if s >= int64(len(l.seen)) || l.seen[s] == 0 {
			m++
		}
	}
	return m
}
