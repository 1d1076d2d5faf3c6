package agent

import (
	"bytes"
	"sync"
	"sync/atomic"

	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/obs"
)

// ingestQueueCap bounds each ingest worker's queue of pending batches.
// Submissions block when a queue is full, so a slow LED shard exerts
// backpressure on the UDP reader instead of growing memory without bound.
const ingestQueueCap = 256

// primBatch carries one shard's decoded primitives from the delivery
// goroutine to its ingest worker. Batches are pooled: the worker returns
// its batch after draining it, so a steady notification load recycles a
// fixed set of slices instead of allocating one per datagram.
type primBatch struct {
	ps []led.Primitive
}

var primBatchPool = sync.Pool{New: func() any {
	return &primBatch{ps: make([]led.Primitive, 0, 16)}
}}

func getPrimBatch() *primBatch { return primBatchPool.Get().(*primBatch) }

// putPrimBatch zeroes the slice before pooling so a recycled batch never
// pins the previous datagram's primitives.
func putPrimBatch(pb *primBatch) {
	for i := range pb.ps {
		pb.ps[i] = led.Primitive{}
	}
	pb.ps = pb.ps[:0]
	primBatchPool.Put(pb)
}

// batchScratch is the reusable per-delivery routing state: the shard→batch
// map and its insertion-ordered key list. Reusing the map (and recycling
// primBatches through their own pool) keeps the steady-state DeliverBatch
// path off the allocator; alloc_test.go pins the budget.
type batchScratch struct {
	keys    []int
	batches map[int]*primBatch
}

var batchScratchPool = sync.Pool{New: func() any {
	return &batchScratch{batches: make(map[int]*primBatch, 8)}
}}

// ingestPool drains decoded notification batches into the LED on a bounded
// set of workers. A batch holds primitives destined for one LED shard, and
// every shard routes to a fixed worker (shard mod workers), so occurrences
// of one shard — and therefore of one event — are ingested in arrival
// order while independent shards proceed concurrently. The per-event vNo
// watermark (recovery.go) would tolerate reordering anyway; the routing
// just keeps the common case gap-free.
type ingestPool struct {
	agent  *Agent
	queues []chan *primBatch
	depths []atomic.Int64 // per-worker queued batches (gauge)
	wg     sync.WaitGroup
	// pending counts submitted-but-unfinished batches, so WaitIngest is a
	// true barrier (queue depth alone misses the batch being processed).
	pending sync.WaitGroup
	// gauges mirrors depths into the metrics registry; set once during
	// initMetrics, before any submission. Nil when metrics are off.
	gauges []*obs.Gauge
	// closeOnce makes close idempotent (Agent.Close may run twice: once
	// from a failed New, once from the caller's deferred Close).
	closeOnce sync.Once
}

func newIngestPool(a *Agent, workers int) *ingestPool {
	p := &ingestPool{
		agent:  a,
		queues: make([]chan *primBatch, workers),
		depths: make([]atomic.Int64, workers),
	}
	for i := range p.queues {
		p.queues[i] = make(chan *primBatch, ingestQueueCap)
		p.wg.Add(1)
		go p.work(i)
	}
	return p
}

func (p *ingestPool) work(i int) {
	defer p.wg.Done()
	for pb := range p.queues[i] {
		d := p.depths[i].Add(-1)
		if p.gauges != nil {
			p.gauges[i].Set(d)
		}
		for _, prim := range pb.ps {
			p.agent.ingest(prim)
		}
		putPrimBatch(pb)
		p.pending.Done()
	}
}

// submit hands one shard's batch to its worker, blocking on backpressure.
// The batch belongs to the worker from here on; it is recycled after
// draining.
func (p *ingestPool) submit(key int, pb *primBatch) {
	w := key % len(p.queues)
	p.pending.Add(1)
	d := p.depths[w].Add(1)
	if p.gauges != nil {
		p.gauges[w].Set(d)
	}
	p.queues[w] <- pb
}

// close stops the workers after draining every queued batch. No submit may
// run concurrently with or after close (the notifier is shut down first).
func (p *ingestPool) close() {
	p.closeOnce.Do(func() {
		for _, q := range p.queues {
			close(q)
		}
	})
	p.wg.Wait()
}

// depth reports one worker's queued-batch count.
func (p *ingestPool) depth(i int) int64 { return p.depths[i].Load() }

// routeKey picks the ingest routing key for an event: its LED shard when
// the event is known, else a stable FNV-1a hash (inlined — hash.Hash32
// would allocate on this path) so unknown events still spread across
// workers and keep per-event FIFO order.
func (a *Agent) routeKey(event string) int {
	if sid := a.led.ShardID(event); sid >= 0 {
		return sid
	}
	h := uint32(2166136261)
	for i := 0; i < len(event); i++ {
		h ^= uint32(event[i])
		h *= 16777619
	}
	return int(h & 0x7fffffff)
}

// DeliverBatchBytes ingests one datagram of newline-batched text
// notifications, the form the generated triggers' syb_sendmsg calls emit.
// Notifications are decoded, grouped by the LED shard of their event, and
// handed to the ingest worker pool so independent shards are signalled
// concurrently; with the pool disabled (Config.IngestWorkers < 0) every
// notification is ingested synchronously, in wire order, exactly like
// repeated Deliver calls. Malformed lines are logged and counted as
// dropped on both paths.
//
// The caller keeps ownership of data — nothing in the decode retains it
// (names are interned, occurrences copied) — which is what lets the
// notifier hand its one receive buffer straight in.
func (a *Agent) DeliverBatchBytes(data []byte) {
	a.waitReady()
	emit := a.ingest
	var scr *batchScratch
	if a.ingestPool != nil {
		scr = batchScratchPool.Get().(*batchScratch)
		emit = func(p led.Primitive) {
			key := a.routeKey(p.Event)
			pb, ok := scr.batches[key]
			if !ok {
				pb = getPrimBatch()
				//ecavet:allow poolleak ownership transfers with the batch: submit hands it to the shard worker, which recycles it via putPrimBatch
				scr.batches[key] = pb
				scr.keys = append(scr.keys, key)
			}
			pb.ps = append(pb.ps, p)
		}
	}
	good, bad := decodeText(data, emit, func(err error) {
		a.cfg.Logf("agent: dropping notification: %v", err)
	})
	a.ctr.notifReceived.Add(uint64(good + bad))
	a.ctr.notifDropped.Add(uint64(bad))
	if scr == nil {
		return
	}
	for _, key := range scr.keys {
		a.ingestPool.submit(key, scr.batches[key])
		delete(scr.batches, key)
	}
	scr.keys = scr.keys[:0]
	batchScratchPool.Put(scr)
}

// DeliverBatch is the string-typed convenience form of DeliverBatchBytes.
func (a *Agent) DeliverBatch(datagram string) {
	a.DeliverBatchBytes([]byte(datagram))
}

// DecodeBatchBytes decodes a newline-batched text datagram through the
// process-wide name table, calling emit per decoded notification and
// onErr per malformed line; it returns the good and bad line counts. The
// exported, allocation-free counterpart of DeliverBatch for benchmarks
// that decode without delivering.
func DecodeBatchBytes(data []byte, emit func(led.Primitive), onErr func(error)) (good, bad int) {
	return decodeText(data, emit, onErr)
}

// decodeText walks a newline-batched text datagram, calling emit for every
// decoded notification (in wire order) and onErr for every malformed line.
// Blank lines (a trailing newline) are neither. It returns the good and
// bad line counts. With interned names and a non-capturing emit the walk
// performs no allocations; TestAllocsDecodeTextClean pins that.
func decodeText(data []byte, emit func(led.Primitive), onErr func(error)) (good, bad int) {
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(line) == 0 {
			continue
		}
		event, table, op, vno, err := parseNotificationBytes(line, &wireNames)
		if err != nil {
			bad++
			onErr(err)
			continue
		}
		good++
		emit(led.Primitive{Event: event, Table: table, Op: op, VNo: vno})
	}
	return good, bad
}

// decodeBatch splits a batched text datagram into its notification lines
// and parses each, returning the decoded primitives in wire order plus one
// error per malformed line (the allocating convenience form of
// decodeText).
func decodeBatch(datagram []byte) (prims []led.Primitive, badLines []error) {
	decodeText(datagram,
		func(p led.Primitive) { prims = append(prims, p) },
		func(err error) { badLines = append(badLines, err) })
	return prims, badLines
}

// WaitIngest blocks until every batch submitted so far has been drained
// into the LED — the barrier tests and benchmarks use before reading
// detection results. Returns immediately when the pool is disabled.
func (a *Agent) WaitIngest() {
	if a.ingestPool != nil {
		a.ingestPool.pending.Wait()
	}
}
