// Package wal is the per-node log-structured durability subsystem: a
// CRC-framed append-only record log with group commit, incremental
// checkpoints that fold the log forward on a size/age watermark, and
// crash-consistent replay that reconstructs object state from the last
// checkpoint image plus the committed log suffix.
//
// The package models the *stable medium* only — it knows nothing about
// the scheduler or the simulated disk.  Callers (internal/core) charge
// simulated seek/bandwidth time for every flush, checkpoint, and replay
// using the byte counts this package reports, and call Sync/Apply only
// after that time has elapsed, so a crash during the simulated disk
// wait leaves the medium exactly as a real power cut would: the flushed
// bytes are torn, the checkpoint never happened.
//
// Layout of one frame:
//
//	magic(1)=0xD7  kind(1)  ver(8 BE)  keyLen(4 BE)  key  dataLen(4 BE)  data  crc32(4 BE)
//
// The CRC covers every preceding byte of the frame.  A group commit
// appends Begin(seq), one Update/Delete per logged write, Commit(seq);
// replay applies only complete Begin..Commit batches, so a tear
// anywhere inside a batch discards the whole batch — atomicity of the
// group commit unit.
//
// Everything is deterministic: the torn-tail tear point is drawn from a
// per-media splitmix64 stream, and all iteration that feeds output is
// sorted.
package wal

import (
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"sort"
	"sync"
)

// Kind classifies one log record.
type Kind uint8

// Record kinds.
const (
	KindBegin      Kind = 1 + iota // opens a group-commit batch; Ver is the flush sequence
	KindUpdate                     // one object-state delta: Key, Ver, Data
	KindDelete                     // tombstone for Key
	KindCommit                     // closes the batch opened by the matching Begin
	KindCheckpoint                 // head marker left after a fold; Ver is the folded sequence
)

// String names the kind for status output.
func (k Kind) String() string {
	switch k {
	case KindBegin:
		return "begin"
	case KindUpdate:
		return "update"
	case KindDelete:
		return "delete"
	case KindCommit:
		return "commit"
	case KindCheckpoint:
		return "checkpoint"
	}
	return "unknown"
}

// Record is one logical log record.
type Record struct {
	Kind Kind
	Key  string
	Ver  uint64
	Data []byte
}

// Entry is the durable image of one key: the last committed version and
// its serialized state.
type Entry struct {
	Ver  uint64
	Data []byte
}

const frameMagic = 0xD7

// FrameSize is the encoded size of one record, used by callers to
// estimate disk-write cost before framing.
func FrameSize(r Record) int {
	return 1 + 1 + 8 + 4 + len(r.Key) + 4 + len(r.Data) + 4
}

// appendFrame encodes r onto dst.
func appendFrame(dst []byte, r Record) []byte {
	start := len(dst)
	var b8 [8]byte
	var b4 [4]byte
	dst = append(dst, frameMagic, byte(r.Kind))
	binary.BigEndian.PutUint64(b8[:], r.Ver)
	dst = append(dst, b8[:]...)
	binary.BigEndian.PutUint32(b4[:], uint32(len(r.Key)))
	dst = append(dst, b4[:]...)
	dst = append(dst, r.Key...)
	binary.BigEndian.PutUint32(b4[:], uint32(len(r.Data)))
	dst = append(dst, b4[:]...)
	dst = append(dst, r.Data...)
	binary.BigEndian.PutUint32(b4[:], crc32.ChecksumIEEE(dst[start:]))
	dst = append(dst, b4[:]...)
	return dst
}

// frame is one decoded frame whose key and data still lie in the log.
type frame struct {
	kind      Kind
	ver       uint64
	key, data []byte
}

// frameAt decodes the frame at off in place: its key and data alias b.
// ok is false for a short, mangled, or checksum-failing frame.
func frameAt(b []byte, off int) (frame, int, bool) {
	const header = 1 + 1 + 8 + 4
	if off+header > len(b) || b[off] != frameMagic {
		return frame{}, 0, false
	}
	kind := Kind(b[off+1])
	if kind < KindBegin || kind > KindCheckpoint {
		return frame{}, 0, false
	}
	ver := binary.BigEndian.Uint64(b[off+2 : off+10])
	keyLen := int(binary.BigEndian.Uint32(b[off+10 : off+14]))
	p := off + header
	if p+keyLen+4 > len(b) {
		return frame{}, 0, false
	}
	key := b[p : p+keyLen]
	p += keyLen
	dataLen := int(binary.BigEndian.Uint32(b[p : p+4]))
	p += 4
	if p+dataLen+4 > len(b) {
		return frame{}, 0, false
	}
	data := b[p : p+dataLen]
	p += dataLen
	if binary.BigEndian.Uint32(b[p:p+4]) != crc32.ChecksumIEEE(b[off:p]) {
		return frame{}, 0, false
	}
	return frame{kind: kind, ver: ver, key: key, data: data}, p + 4, true
}

// foldBatches scans b, folding every complete Begin..Commit batch into
// entries (updates overwrite, deletes remove).  It returns the batch
// and record counts, the highest committed flush sequence, and the
// offset of the first invalid frame (== len(b) when the log is clean).
//
// The scan works on frames in place.  It first finds each key's last
// committed record, and only that record reaches entries, its key and
// data copied there once, so the copies stay valid when the log is
// truncated or rewritten: a fold of n records over k keys allocates for
// k keys, not for n records.
func foldBatches(b []byte, entries map[string]Entry) (batches, records int, maxSeq uint64, valid int) {
	type survivor struct {
		key string
		f   frame
	}
	var (
		last    []survivor         // each key's last committed record, in first-commit order
		slot    = map[string]int{} // key -> its index in last
		batch   []frame            // the open batch's records
		inBatch bool
	)
	off := 0
	for off < len(b) {
		f, next, ok := frameAt(b, off)
		if !ok {
			break
		}
		switch f.kind {
		case KindBegin:
			inBatch = true
			batch = batch[:0]
		case KindUpdate, KindDelete:
			if inBatch {
				batch = append(batch, f)
			}
		case KindCommit:
			if inBatch {
				for _, r := range batch {
					if i, ok := slot[string(r.key)]; ok {
						last[i].f = r
						continue
					}
					key := string(r.key)
					slot[key] = len(last)
					last = append(last, survivor{key, r})
				}
				batches++
				records += len(batch)
				if f.ver > maxSeq {
					maxSeq = f.ver
				}
				inBatch = false
			}
		case KindCheckpoint:
			if f.ver > maxSeq {
				maxSeq = f.ver
			}
		}
		off = next
	}
	for _, s := range last {
		if s.f.kind == KindDelete {
			delete(entries, s.key)
		} else {
			entries[s.key] = Entry{Ver: s.f.ver, Data: append([]byte(nil), s.f.data...)}
		}
	}
	return batches, records, maxSeq, off
}

// Media is the stable storage of one node: the checkpoint base image
// plus the append-only log.  It survives node crashes and — when owned
// by a shared Stable — whole-cluster restarts.  The synced watermark
// divides the log into the durable prefix and the not-yet-fsynced tail;
// Crash truncates the tail at a seeded tear point, possibly mid-frame.
type Media struct {
	mu    sync.Mutex
	name  string
	seed  uint64
	ctr   uint64
	epoch uint64

	base    map[string]Entry
	log     []byte
	synced  int
	nextSeq uint64

	appends         uint64
	flushes         uint64
	flushBytes      uint64
	checkpoints     uint64
	checkpointBytes uint64
	crashes         uint64
	replays         uint64
	torn            uint64
}

// NewMedia returns an empty medium with the given torn-tail seed.
func NewMedia(name string, seed uint64) *Media {
	return &Media{name: name, seed: seed, base: make(map[string]Entry)}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// draw yields the next value of the medium's deterministic stream.
// Callers hold m.mu.
func (m *Media) draw() uint64 {
	m.ctr++
	return splitmix64(m.seed + m.ctr*0x9e3779b97f4a7c15)
}

// Crash models a power cut: the unsynced tail is torn at a seeded
// offset (possibly mid-frame) and the epoch advances so in-flight
// Sync/ApplyCheckpoint tickets from before the cut are rejected.
// Callers must Replay before appending again — replay truncates the
// torn tail so new frames never land after garbage bytes.
func (m *Media) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epoch++
	m.crashes++
	keep := m.synced
	if tail := len(m.log) - m.synced; tail > 0 {
		keep += int(m.draw() % uint64(tail+1))
	}
	m.log = m.log[:keep]
}

// Replay reconstructs the durable image: the base entries plus every
// complete committed batch in the log.  The log is truncated at the
// first invalid frame (the torn tail), so a second replay of the same
// medium is byte-identical.  Callers charge DiskRead for ReadBytes.
type Replay struct {
	Entries   map[string]Entry
	Records   int // update/delete records applied
	LogBytes  int // log length before truncation
	TornBytes int // bytes removed at the torn tail
	ReadBytes int // simulated bytes read: base image + log
}

// Replay scans the medium.  See type Replay.
func (m *Media) Replay() Replay {
	m.mu.Lock()
	defer m.mu.Unlock()
	entries := make(map[string]Entry, len(m.base))
	for k, v := range m.base {
		entries[k] = v
	}
	rep := Replay{LogBytes: len(m.log)}
	var valid int
	_, rep.Records, _, valid = foldBatches(m.log, entries)
	if valid < len(m.log) {
		rep.TornBytes = len(m.log) - valid
		m.torn += uint64(rep.TornBytes)
		m.log = m.log[:valid]
		if m.synced > valid {
			m.synced = valid
		}
	}
	rep.Entries = entries
	rep.ReadBytes = rep.LogBytes + m.baseBytesLocked()
	m.replays++
	return rep
}

// baseBytesLocked is the simulated size of the checkpoint image.
func (m *Media) baseBytesLocked() int {
	n := 0
	for k, e := range m.base {
		n += FrameSize(Record{Kind: KindUpdate, Key: k, Data: e.Data})
	}
	return n
}

// Stats is a point-in-time snapshot of one medium's counters.
type Stats struct {
	Node            string
	Appends         uint64 // records buffered for logging
	Flushes         uint64 // simulated fsyncs (group commits + checkpoints count their own)
	FlushBytes      uint64 // bytes written by group commits
	Checkpoints     uint64
	CheckpointBytes uint64 // delta bytes written by folds
	Crashes         uint64
	Replays         uint64
	TornBytes       uint64
	LogBytes        int // current log length
	SyncedBytes     int // durable prefix length
	BaseKeys        int
}

// Stats snapshots the medium.
func (m *Media) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Node:            m.name,
		Appends:         m.appends,
		Flushes:         m.flushes,
		FlushBytes:      m.flushBytes,
		Checkpoints:     m.checkpoints,
		CheckpointBytes: m.checkpointBytes,
		Crashes:         m.crashes,
		Replays:         m.replays,
		TornBytes:       m.torn,
		LogBytes:        len(m.log),
		SyncedBytes:     m.synced,
		BaseKeys:        len(m.base),
	}
}

// Log is the volatile front of one medium: the pending group-commit
// buffer plus the flush/sync/checkpoint protocol.  A Log does not
// survive a crash — callers drop it (DropPending) and later Replay the
// medium.  Methods are not self-synchronized; the owning runtime
// serializes them.  The medium underneath has its own lock, so Crash
// may race with any of them safely.
type Log struct {
	m    *Media
	pend []Record
}

// NewLog opens a volatile log front over m.
func NewLog(m *Media) *Log { return &Log{m: m} }

// Append buffers one record for the next group commit.
func (l *Log) Append(r Record) {
	l.pend = append(l.pend, r)
	l.m.mu.Lock()
	l.m.appends++
	l.m.mu.Unlock()
}

// DropPending discards the buffered records (crash path).
func (l *Log) DropPending() { l.pend = l.pend[:0] }

// FlushTicket names one framed-but-not-yet-synced group commit.
type FlushTicket struct {
	Epoch   uint64
	End     int
	Records int
	Bytes   int
}

// Flush frames the pending records as one Begin..Commit batch and
// appends them to the medium's unsynced tail.  The caller then charges
// the simulated disk write for t.Bytes and calls Sync(t); a crash in
// between tears the batch.  Returns false with no effect when nothing
// is pending.
func (l *Log) Flush() (FlushTicket, bool) {
	if len(l.pend) == 0 {
		return FlushTicket{}, false
	}
	m := l.m
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextSeq++
	seq := m.nextSeq
	start := len(m.log)
	buf := appendFrame(m.log, Record{Kind: KindBegin, Ver: seq})
	for _, r := range l.pend {
		buf = appendFrame(buf, r)
	}
	buf = appendFrame(buf, Record{Kind: KindCommit, Ver: seq})
	m.log = buf
	n := len(l.pend)
	l.pend = l.pend[:0]
	return FlushTicket{Epoch: m.epoch, End: len(buf), Records: n, Bytes: len(buf) - start}, true
}

// Sync marks the ticket's batch durable (the fsync completed).  It
// reports false — and changes nothing — when the medium crashed after
// the Flush, in which case the batch is gone and its writers must fail.
func (l *Log) Sync(t FlushTicket) bool {
	m := l.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if t.Epoch != m.epoch {
		return false
	}
	if t.End > m.synced {
		m.synced = t.End
	}
	m.flushes++
	m.flushBytes += uint64(t.Bytes)
	return true
}

// CheckpointPlan is a prepared fold: the state delta of the synced
// committed region versus the base image, and the simulated bytes the
// fold will write.
type CheckpointPlan struct {
	Epoch uint64
	Seq   uint64 // new base sequence after the fold
	Bytes int    // delta entries + tombstones + checkpoint marker, framed
	upTo  int    // synced offset the plan folds
	delta map[string]Entry
	dels  []string
}

// PrepareCheckpoint computes the incremental fold of the synced log
// prefix into the base image.  The caller charges DiskWrite for
// plan.Bytes, then calls ApplyCheckpoint; a crash in between leaves the
// old base and the full synced log, which replay handles identically.
// Returns false when the synced prefix holds no committed batch.
func (l *Log) PrepareCheckpoint() (CheckpointPlan, bool) {
	m := l.m
	m.mu.Lock()
	defer m.mu.Unlock()
	entries := make(map[string]Entry, len(m.base))
	for k, v := range m.base {
		entries[k] = v
	}
	batches, _, maxSeq, _ := foldBatches(m.log[:m.synced], entries)
	if batches == 0 {
		return CheckpointPlan{}, false
	}
	plan := CheckpointPlan{Epoch: m.epoch, Seq: maxSeq, upTo: m.synced, delta: make(map[string]Entry)}
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := entries[k]
		old, ok := m.base[k]
		if !ok || old.Ver != e.Ver {
			plan.delta[k] = e
			plan.Bytes += FrameSize(Record{Kind: KindUpdate, Key: k, Data: e.Data})
		}
	}
	baseKeys := make([]string, 0, len(m.base))
	for k := range m.base {
		baseKeys = append(baseKeys, k)
	}
	sort.Strings(baseKeys)
	for _, k := range baseKeys {
		if _, ok := entries[k]; !ok {
			plan.dels = append(plan.dels, k)
			plan.Bytes += FrameSize(Record{Kind: KindDelete, Key: k})
		}
	}
	plan.Bytes += FrameSize(Record{Kind: KindCheckpoint})
	return plan, true
}

// ApplyCheckpoint installs a prepared fold: the delta merges into the
// base image, the folded log prefix is replaced by a single Checkpoint
// marker frame, and the unsynced tail is preserved.  Reports false —
// and changes nothing — when the medium crashed since the plan was
// prepared.
func (l *Log) ApplyCheckpoint(p CheckpointPlan) bool {
	m := l.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if p.Epoch != m.epoch {
		return false
	}
	for _, k := range p.dels {
		delete(m.base, k)
	}
	keys := make([]string, 0, len(p.delta))
	for k := range p.delta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m.base[k] = p.delta[k]
	}
	tail := append([]byte(nil), m.log[p.upTo:]...)
	head := appendFrame(nil, Record{Kind: KindCheckpoint, Ver: p.Seq})
	m.synced = len(head) + (m.synced - p.upTo)
	m.log = append(head, tail...)
	m.checkpoints++
	m.checkpointBytes += uint64(p.Bytes)
	m.flushes++
	return true
}

// Stable is the registry of per-node media.  It outlives worlds: a
// whole-cluster restart builds a fresh world over the same Stable and
// replays what the old cluster logged.  Per-node seeds derive
// deterministically from the registry seed and the node name.
type Stable struct {
	mu    sync.Mutex
	seed  int64
	nodes map[string]*Media
}

// NewStable returns an empty registry with the given seed.
func NewStable(seed int64) *Stable {
	return &Stable{seed: seed, nodes: make(map[string]*Media)}
}

// Node returns the medium for name, creating it on first use.
func (s *Stable) Node(name string) *Media {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.nodes[name]; ok {
		return m
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	m := NewMedia(name, splitmix64(uint64(s.seed)^h.Sum64()))
	s.nodes[name] = m
	return m
}

// Nodes lists the registered node names, sorted.
func (s *Stable) Nodes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.nodes))
	for n := range s.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
