package wire

import (
	"sync"
	"sync/atomic"
)

// Pool is a buffer arena for encode scratch space: Get hands out an
// empty []byte whose capacity tracks the high-water mark of buffers
// returned through Put, so steady-state encoding of any message mix
// settles into zero growth — the arena learns the workload's largest
// message and stays there.
//
// Buffers above maxRetain are dropped instead of pooled so one
// pathological giant (a whole-object migration state) cannot pin
// megabytes in every P's pool shard forever.
type Pool struct {
	p  sync.Pool
	hw atomic.Int64 // high-water mark of returned buffer lengths
}

const (
	poolMinCap   = 256
	poolMaxRetap = 1 << 20 // retain up to 1 MiB buffers
)

// NewPool returns an empty arena.
func NewPool() *Pool {
	pl := &Pool{}
	pl.p.New = func() any {
		c := int(pl.hw.Load())
		if c < poolMinCap {
			c = poolMinCap
		}
		b := make([]byte, 0, c)
		return &b
	}
	return pl
}

// Get returns an empty buffer with capacity at least the arena's
// learned high-water mark.
func (pl *Pool) Get() []byte {
	bp := pl.p.Get().(*[]byte)
	b := (*bp)[:0]
	*bp = nil
	ptrPool.Put(bp)
	return b
}

// Put returns b to the arena, recording its length as a high-water
// candidate.  The caller must not use b afterwards.
func (pl *Pool) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	// Clamp the learned size at the retain ceiling: a giant buffer is
	// dropped below, so letting it raise hw would make every future
	// pool miss allocate (and then drop) a giant — a permanent-miss
	// loop where the arena allocates megabytes per small message.
	n := int64(len(b))
	if n > poolMaxRetap {
		n = poolMaxRetap
	}
	for {
		hw := pl.hw.Load()
		if n <= hw || pl.hw.CompareAndSwap(hw, n) {
			break
		}
	}
	if cap(b) > poolMaxRetap {
		return
	}
	bp, _ := ptrPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	*bp = b
	pl.p.Put(bp)
}

// ptrPool recycles the *[]byte boxes themselves so Get/Put do not
// allocate a header per cycle.
var ptrPool = sync.Pool{New: func() any { return new([]byte) }}

// Buffers is the process-wide encode arena used by the rmi layer's
// transports and envelopes.
var Buffers = NewPool()
