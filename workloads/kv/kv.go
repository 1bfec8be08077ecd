// Package kv implements a key-value workload for exercising the object
// replication and shard-group subsystems: a Store object holds a
// string→int table and is typically replicated with Get/Sum/Len
// declared read-only, and Reader objects pinned across the installation
// issue batches of reads *from their own node*, so nearest-replica
// routing has distinct origins to route from.
//
// The modeled CPU costs make throughput service-bound rather than
// wire-bound: with N replicas the aggregate read capacity scales with
// the set size (ReadFlops; cmd/jsbench -experiment replica), and with S
// shards the aggregate write capacity scales with the shard count
// (WriteFlops; cmd/jsbench -experiment shard).
//
// Store also implements the shard-group handoff protocol
// (Keys/Extract/Install), so a kv key space can be partitioned with
// jsymphony.NewShardGroup and rebalanced when shards are added.
package kv

import (
	"fmt"
	"sort"
	"sync"

	"jsymphony"
)

// Registered class names.
const (
	StoreClass  = "kv.Store"
	ReaderClass = "kv.Reader"
)

func init() {
	jsymphony.RegisterClass(StoreClass, 4096, func() any { return &Store{} })
	jsymphony.RegisterClass(ReaderClass, 2048, func() any { return &Reader{} })
	jsymphony.RegisterWireType(ReadReport{})
}

// Store is the replicable, shardable table.  All state is exported so
// the object survives migration, persistence, replica seeding, and
// shard handoff (the codec carries exported fields only).
type Store struct {
	Data       map[string]int
	ReadFlops  float64 // modeled CPU per Get/Sum (0 = free reads)
	WriteFlops float64 // modeled CPU per Put/Add (0 = free writes)

	mu sync.Mutex // methods run on one proc per RMI
}

// Init sizes the table and sets the modeled read cost.
func (s *Store) Init(readFlops float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Data = make(map[string]int)
	s.ReadFlops = readFlops
}

// InitRW sizes the table and sets both modeled costs; the shard
// benchmark uses write costs to make throughput primary-bound.
func (s *Store) InitRW(readFlops, writeFlops float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Data = make(map[string]int)
	s.ReadFlops = readFlops
	s.WriteFlops = writeFlops
}

// Put stores one binding, charging the modeled write cost to the
// hosting node.
func (s *Store) Put(ctx *jsymphony.Ctx, k string, v int) {
	s.mu.Lock()
	if s.Data == nil {
		s.Data = make(map[string]int)
	}
	s.Data[k] = v
	flops := s.WriteFlops
	s.mu.Unlock()
	if flops > 0 {
		ctx.Compute(flops)
	}
}

// Add increments a binding and returns the new value.
func (s *Store) Add(ctx *jsymphony.Ctx, k string, d int) int {
	s.mu.Lock()
	if s.Data == nil {
		s.Data = make(map[string]int)
	}
	s.Data[k] += d
	v := s.Data[k]
	flops := s.WriteFlops
	s.mu.Unlock()
	if flops > 0 {
		ctx.Compute(flops)
	}
	return v
}

// Get reads one binding, charging the modeled read cost to whichever
// node serves it (primary or replica).
func (s *Store) Get(ctx *jsymphony.Ctx, k string) int {
	s.mu.Lock()
	v := s.Data[k]
	flops := s.ReadFlops
	s.mu.Unlock()
	if flops > 0 {
		ctx.Compute(flops)
	}
	return v
}

// Sum folds the table (a heavier read).
func (s *Store) Sum(ctx *jsymphony.Ctx) int {
	s.mu.Lock()
	total := 0
	for _, v := range s.Data {
		total += v
	}
	flops := s.ReadFlops
	s.mu.Unlock()
	if flops > 0 {
		ctx.Compute(flops)
	}
	return total
}

// Len reports the number of bindings.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.Data)
}

// Keys returns the table's keys in sorted order (shard handoff:
// enumerate before Extract).
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.Data))
	for k := range s.Data {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Extract removes and returns the listed bindings (shard handoff:
// the source side).  Missing keys are skipped.
func (s *Store) Extract(keys []string) map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(keys))
	for _, k := range keys {
		if v, ok := s.Data[k]; ok {
			out[k] = v
			delete(s.Data, k)
		}
	}
	return out
}

// Install merges bindings extracted from another shard (shard handoff:
// the destination side).
func (s *Store) Install(data map[string]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Data == nil {
		s.Data = make(map[string]int)
	}
	for k, v := range data {
		s.Data[k] = v
	}
}

// ReadMethods is the read-only method set a replication policy should
// declare for a Store.
func ReadMethods() []string { return []string{"Get", "Sum", "Len"} }

// ReadReport summarizes one reader's batch.
type ReadReport struct {
	Node  string // node the reads were issued from
	Reads int    // reads performed
	Sum   int    // checksum over the values read
}

// Reader issues reads against a Store from wherever it is placed, so a
// fleet of readers gives the router many distinct origins.
type Reader struct{}

// Run performs n Gets of key through the store's first-order handle.
// Each read is issued from the reader's own node and is therefore
// eligible for nearest-replica routing there.
func (r *Reader) Run(ctx *jsymphony.Ctx, store jsymphony.Ref, key string, n int) (ReadReport, error) {
	rep := ReadReport{Node: ctx.Node(), Reads: n}
	for i := 0; i < n; i++ {
		v, err := ctx.Invoke(store, "Get", []any{key})
		if err != nil {
			return rep, fmt.Errorf("read %d from %s: %w", i, rep.Node, err)
		}
		rep.Sum += v.(int)
	}
	return rep, nil
}
