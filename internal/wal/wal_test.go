package wal

import (
	"bytes"
	"fmt"
	"testing"
)

// readFrame decodes the frame at off into a record of its own: key and
// data are copied out of b.
func readFrame(b []byte, off int) (Record, int, bool) {
	f, next, ok := frameAt(b, off)
	if !ok {
		return Record{}, 0, false
	}
	return Record{Kind: f.kind, Key: string(f.key), Ver: f.ver, Data: append([]byte(nil), f.data...)}, next, true
}

func TestFrameRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: KindBegin, Ver: 7},
		{Kind: KindUpdate, Key: "o:app/1", Ver: 3, Data: []byte("hello")},
		{Kind: KindDelete, Key: "o:app/2", Ver: 4},
		{Kind: KindCommit, Ver: 7},
		{Kind: KindCheckpoint, Ver: 7},
	}
	var buf []byte
	for _, r := range recs {
		if got := FrameSize(r); got != len(appendFrame(nil, r)) {
			t.Fatalf("FrameSize(%v) = %d, encoded %d", r.Kind, got, len(appendFrame(nil, r)))
		}
		buf = appendFrame(buf, r)
	}
	off := 0
	for i, want := range recs {
		got, next, ok := readFrame(buf, off)
		if !ok {
			t.Fatalf("frame %d: readFrame failed", i)
		}
		if got.Kind != want.Kind || got.Key != want.Key || got.Ver != want.Ver || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		off = next
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	buf := appendFrame(nil, Record{Kind: KindUpdate, Key: "k", Ver: 1, Data: []byte("v")})
	for i := range buf {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x40
		if _, _, ok := readFrame(bad, 0); ok {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
	if _, _, ok := readFrame(buf[:len(buf)-1], 0); ok {
		t.Fatal("short frame went undetected")
	}
}

func TestGroupCommitReplay(t *testing.T) {
	m := NewMedia("node01", 1)
	l := NewLog(m)
	for i := 0; i < 5; i++ {
		l.Append(Record{Kind: KindUpdate, Key: fmt.Sprintf("k%d", i), Ver: 1, Data: []byte{byte(i)}})
	}
	tk, ok := l.Flush()
	if !ok || tk.Records != 5 {
		t.Fatalf("Flush = %+v, %v", tk, ok)
	}
	if !l.Sync(tk) {
		t.Fatal("Sync rejected a live ticket")
	}
	rep := m.Replay()
	if rep.Batches != 1 || rep.Records != 5 || rep.TornBytes != 0 {
		t.Fatalf("replay = %+v", rep)
	}
	for i := 0; i < 5; i++ {
		e, ok := rep.Entries[fmt.Sprintf("k%d", i)]
		if !ok || !bytes.Equal(e.Data, []byte{byte(i)}) {
			t.Fatalf("k%d missing or wrong: %+v", i, e)
		}
	}
}

func TestDeleteTombstone(t *testing.T) {
	m := NewMedia("n", 1)
	l := NewLog(m)
	l.Append(Record{Kind: KindUpdate, Key: "a", Ver: 1, Data: []byte("x")})
	tk, _ := l.Flush()
	l.Sync(tk)
	l.Append(Record{Kind: KindDelete, Key: "a", Ver: 2})
	tk, _ = l.Flush()
	l.Sync(tk)
	if rep := m.Replay(); len(rep.Entries) != 0 {
		t.Fatalf("tombstone not applied: %+v", rep.Entries)
	}
}

// An unsynced batch must never survive a crash intact beyond the tear
// point, and replay must truncate the log at a frame boundary so a
// second replay is byte-identical.
func TestCrashTearsUnsyncedTail(t *testing.T) {
	for seed := uint64(0); seed < 32; seed++ {
		m := NewMedia("n", seed)
		l := NewLog(m)
		l.Append(Record{Kind: KindUpdate, Key: "synced", Ver: 1, Data: []byte("ok")})
		tk, _ := l.Flush()
		l.Sync(tk)
		synced := m.Stats().SyncedBytes

		l.Append(Record{Kind: KindUpdate, Key: "torn", Ver: 2, Data: []byte("gone?")})
		if _, ok := l.Flush(); !ok {
			t.Fatal("second flush failed")
		}
		m.Crash()
		l.DropPending()

		rep := m.Replay()
		if _, ok := rep.Entries["synced"]; !ok {
			t.Fatalf("seed %d: synced batch lost", seed)
		}
		after := m.Stats()
		if after.LogBytes < synced {
			t.Fatalf("seed %d: synced prefix truncated (%d < %d)", seed, after.LogBytes, synced)
		}
		// Whatever the tear left, the repaired log must be all valid
		// frames: a second replay sees zero torn bytes and the same state.
		rep2 := m.Replay()
		if rep2.TornBytes != 0 {
			t.Fatalf("seed %d: second replay still torn (%d bytes)", seed, rep2.TornBytes)
		}
		if len(rep2.Entries) != len(rep.Entries) {
			t.Fatalf("seed %d: replay not idempotent: %d vs %d entries", seed, len(rep2.Entries), len(rep.Entries))
		}
		// The torn batch is atomic: either fully applied (tear landed at
		// the very end) or fully absent.
		if e, ok := rep.Entries["torn"]; ok && !bytes.Equal(e.Data, []byte("gone?")) {
			t.Fatalf("seed %d: partial batch applied: %+v", seed, e)
		}
	}
}

func TestCrashInvalidatesTickets(t *testing.T) {
	m := NewMedia("n", 3)
	l := NewLog(m)
	l.Append(Record{Kind: KindUpdate, Key: "a", Ver: 1, Data: []byte("x")})
	tk, _ := l.Flush()
	m.Crash()
	if l.Sync(tk) {
		t.Fatal("Sync accepted a pre-crash ticket")
	}
	if m.Stats().Flushes != 0 {
		t.Fatal("rejected sync still counted a flush")
	}
	m.Replay() // repair the torn tail before reuse, as the runtime does

	l.Append(Record{Kind: KindUpdate, Key: "b", Ver: 2, Data: []byte("y")})
	tk, _ = l.Flush()
	l.Sync(tk)
	plan, ok := l.PrepareCheckpoint()
	if !ok {
		t.Fatal("PrepareCheckpoint found nothing to fold")
	}
	m.Crash()
	if l.ApplyCheckpoint(plan) {
		t.Fatal("ApplyCheckpoint accepted a pre-crash plan")
	}
	if m.Stats().BaseKeys != 0 {
		t.Fatal("rejected checkpoint mutated the base")
	}
}

func TestCheckpointFold(t *testing.T) {
	m := NewMedia("n", 5)
	l := NewLog(m)
	for i := 0; i < 10; i++ {
		l.Append(Record{Kind: KindUpdate, Key: fmt.Sprintf("k%d", i%3), Ver: uint64(i + 1), Data: []byte{byte(i)}})
		tk, _ := l.Flush()
		l.Sync(tk)
	}
	before := m.Replay()

	plan, ok := l.PrepareCheckpoint()
	if !ok {
		t.Fatal("nothing to fold")
	}
	if len(plan.delta) != 3 {
		t.Fatalf("delta has %d keys, want 3", len(plan.delta))
	}
	if !l.ApplyCheckpoint(plan) {
		t.Fatal("ApplyCheckpoint rejected a live plan")
	}
	st := m.Stats()
	if st.BaseKeys != 3 || st.BaseSeq == 0 {
		t.Fatalf("fold stats: %+v", st)
	}
	ck := FrameSize(Record{Kind: KindCheckpoint})
	if st.LogBytes != ck || st.SyncedBytes != ck {
		t.Fatalf("log not folded to the checkpoint marker: %+v", st)
	}

	after := m.Replay()
	if len(after.Entries) != len(before.Entries) {
		t.Fatalf("fold changed the image: %d vs %d keys", len(after.Entries), len(before.Entries))
	}
	for k, want := range before.Entries {
		got, ok := after.Entries[k]
		if !ok || got.Ver != want.Ver || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("key %s: got %+v want %+v", k, got, want)
		}
	}

	// An incremental second fold only writes what changed since.
	l.Append(Record{Kind: KindUpdate, Key: "k0", Ver: 11, Data: []byte("new")})
	tk, _ := l.Flush()
	l.Sync(tk)
	plan2, ok := l.PrepareCheckpoint()
	if !ok {
		t.Fatal("second fold found nothing")
	}
	if len(plan2.delta) != 1 {
		t.Fatalf("second fold delta has %d keys, want 1", len(plan2.delta))
	}
	if plan2.Bytes >= plan.Bytes {
		t.Fatalf("second fold (%dB) not smaller than first (%dB)", plan2.Bytes, plan.Bytes)
	}
}

func TestCheckpointPreservesUnsyncedTail(t *testing.T) {
	m := NewMedia("n", 9)
	l := NewLog(m)
	l.Append(Record{Kind: KindUpdate, Key: "a", Ver: 1, Data: []byte("x")})
	tk, _ := l.Flush()
	l.Sync(tk)
	l.Append(Record{Kind: KindUpdate, Key: "b", Ver: 2, Data: []byte("y")})
	if _, ok := l.Flush(); !ok { // flushed but never synced
		t.Fatal("flush failed")
	}
	plan, ok := l.PrepareCheckpoint()
	if !ok {
		t.Fatal("nothing to fold")
	}
	if _, inDelta := plan.delta["b"]; inDelta {
		t.Fatal("fold consumed an unsynced batch")
	}
	l.ApplyCheckpoint(plan)
	rep := m.Replay()
	if _, ok := rep.Entries["b"]; !ok {
		t.Fatal("fold dropped the unsynced tail")
	}
}

func TestStableDeterminism(t *testing.T) {
	run := func() ([]string, [][]byte) {
		s := NewStable(42)
		var logs [][]byte
		for _, node := range []string{"node01", "node02"} {
			m := s.Node(node)
			l := NewLog(m)
			for i := 0; i < 4; i++ {
				l.Append(Record{Kind: KindUpdate, Key: fmt.Sprintf("%s/k%d", node, i), Ver: uint64(i + 1), Data: []byte{byte(i)}})
			}
			tk, _ := l.Flush()
			l.Sync(tk)
			l.Append(Record{Kind: KindUpdate, Key: "tail", Ver: 9, Data: []byte("unsynced")})
			l.Flush()
			m.Crash()
			m.Replay()
			logs = append(logs, m.log)
		}
		return s.Nodes(), logs
	}
	n1, l1 := run()
	n2, l2 := run()
	if fmt.Sprint(n1) != fmt.Sprint(n2) {
		t.Fatalf("node sets differ: %v vs %v", n1, n2)
	}
	for i := range l1 {
		if !bytes.Equal(l1[i], l2[i]) {
			t.Fatalf("log %d differs between twin runs", i)
		}
	}
	// Distinct nodes draw distinct tear streams.
	if bytes.Equal(l1[0], l1[1]) {
		t.Fatal("node01 and node02 media are identical; per-node seeds not applied")
	}
}

// TestFoldAllocBudget pins the fold behind replay and PrepareCheckpoint
// to what survives it: n records over k keys, each key rewritten many
// times and some deleted on the way, allocate for the k keys, so a log
// a hundred times longer costs the same.  The image is checked against
// the history written.
func TestFoldAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account, so allocation budgets do not hold under it")
	}
	// The ceiling is today's count for 8 keys: each survivor's key and
	// data, the growth of the survivor list and of the batch scratch.
	const keys, perBatch, ceiling = 8, 4, 22
	fold := func(n int) float64 {
		m := NewMedia("n", 1)
		l := NewLog(m)
		want := map[string]Entry{}
		for i := 0; i < n; i++ {
			r := Record{Kind: KindUpdate, Key: fmt.Sprintf("o:app/%d", i%keys), Ver: uint64(i + 1), Data: []byte(fmt.Sprint("state ", i))}
			if i%7 == 3 {
				r.Kind, r.Data = KindDelete, nil
				delete(want, r.Key)
			} else {
				want[r.Key] = Entry{Ver: r.Ver, Data: r.Data}
			}
			l.Append(r)
			if i%perBatch == perBatch-1 {
				tk, _ := l.Flush()
				l.Sync(tk)
			}
		}
		got := map[string]Entry{}
		if batches, records, _, valid := foldBatches(m.log, got); batches != n/perBatch || records != n || valid != len(m.log) {
			t.Fatalf("fold of %d records: %d batches, %d records, valid %d of %d", n, batches, records, valid, len(m.log))
		}
		if !sameImage(got, want) {
			t.Fatalf("fold of %d records: image %v, want %v", n, got, want)
		}
		return testing.AllocsPerRun(20, func() {
			clear(got)
			foldBatches(m.log, got)
		})
	}
	short, long := fold(keys*perBatch*10), fold(keys*perBatch*1000)
	if short > ceiling || long > short {
		t.Errorf("fold of %d records over %d keys: %.1f allocs, of %d records: %.1f; ceiling %d, and no more for the longer log",
			keys*perBatch*10, keys, short, keys*perBatch*1000, long, ceiling)
	} else {
		t.Logf("fold over %d keys: %.1f allocs for %d records, %.1f for %d", keys, short, keys*perBatch*10, long, keys*perBatch*1000)
	}
}
