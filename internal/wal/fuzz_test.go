package wal

import (
	"bytes"
	"fmt"
	"testing"
)

// ackedHistory writes three group commits through the Log API — the
// first is TestGroupCommitReplay's — and returns the log they leave,
// every frame boundary in it, and after[i]: the offset at which batch i
// is complete and the image a reader must see once it is.
func ackedHistory(t testing.TB) (log []byte, frames []int, after []ackedState) {
	m := NewMedia("node01", 1)
	l := NewLog(m)
	image := map[string]Entry{}
	commit := func(recs ...Record) {
		for _, r := range recs {
			l.Append(r)
			if r.Kind == KindDelete {
				delete(image, r.Key)
			} else {
				image[r.Key] = Entry{Ver: r.Ver, Data: r.Data}
			}
		}
		tk, ok := l.Flush()
		if !ok || !l.Sync(tk) {
			t.Fatal("group commit rejected")
		}
		snap := make(map[string]Entry, len(image))
		for k, e := range image {
			snap[k] = e
		}
		after = append(after, ackedState{end: len(m.LogBytes()), image: snap})
	}
	var first []Record
	for i := 0; i < 5; i++ {
		first = append(first, Record{Kind: KindUpdate, Key: fmt.Sprintf("k%d", i), Ver: 1, Data: []byte{byte(i)}})
	}
	commit(first...)
	commit(Record{Kind: KindUpdate, Key: "k1", Ver: 2, Data: []byte("rewritten")},
		Record{Kind: KindDelete, Key: "k0", Ver: 2})
	commit(Record{Kind: KindUpdate, Key: "big", Ver: 1, Data: bytes.Repeat([]byte{0xD7}, 300)})

	log = m.LogBytes()
	for off := 0; off < len(log); {
		_, next, ok := readFrame(log, off)
		if !ok {
			t.Fatalf("history log has a bad frame at %d", off)
		}
		frames = append(frames, off)
		off = next
	}
	return log, append(frames, len(log)), after
}

type ackedState struct {
	end   int
	image map[string]Entry
}

func sameImage(a, b map[string]Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for k, e := range a {
		if o, ok := b[k]; !ok || o.Ver != e.Ver || !bytes.Equal(o.Data, e.Data) {
			return false
		}
	}
	return true
}

// FuzzWALReplay holds replay to its contract on bytes that crossed a
// crash.  On arbitrary bytes: no panic, the valid offset lies inside the
// input, the prefix before it is whole canonical frames, and nothing
// past it reached the image (folding the prefix alone gives the same
// answer).  On a damaged copy of a valid log — cut short at cut, one
// byte at pos xor-ed — replay stops at the boundary of the first damaged
// frame and the image is exactly the acked history up to the last group
// commit that ends before it: a prefix, never a record past a bad CRC.
func FuzzWALReplay(f *testing.F) {
	log, frames, after := ackedHistory(f)
	f.Add(log, uint16(len(log)), uint16(0), byte(0))
	f.Add(log[:len(log)/2], uint16(len(log)/2), uint16(20), byte(0x40))
	f.Add([]byte{frameMagic, byte(KindUpdate), 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}, uint16(after[0].end+3), uint16(after[0].end), byte(1))
	f.Add([]byte(nil), uint16(0), uint16(0), byte(0))

	f.Fuzz(func(t *testing.T, raw []byte, cut, pos uint16, xor byte) {
		image := map[string]Entry{}
		batches, records, maxSeq, valid := foldBatches(raw, image)
		if valid < 0 || valid > len(raw) {
			t.Fatalf("valid = %d outside [0, %d]", valid, len(raw))
		}
		var canon []byte
		for off := 0; off < valid; {
			rec, next, ok := readFrame(raw, off)
			if !ok {
				t.Fatalf("bad frame at %d inside the valid prefix [0, %d)", off, valid)
			}
			canon = appendFrame(canon, rec)
			off = next
		}
		if !bytes.Equal(canon, raw[:valid]) {
			t.Fatalf("valid prefix [0, %d) is not the frames it decodes to", valid)
		}
		prefix := map[string]Entry{}
		if b, r, s, v := foldBatches(raw[:valid], prefix); b != batches || r != records || s != maxSeq || v != valid || !sameImage(prefix, image) {
			t.Fatalf("bytes past offset %d changed the replay: %d/%d/%d/%d vs %d/%d/%d/%d", valid, batches, records, maxSeq, valid, b, r, s, v)
		}

		// A damaged copy of the acked history.
		end := int(cut) % (len(log) + 1)
		damaged := append([]byte(nil), log[:end]...)
		firstBad := end
		if p := int(pos); p < end && xor != 0 {
			damaged[p] ^= xor
			firstBad = p
		}
		wantValid := 0
		for _, b := range frames {
			if b <= firstBad {
				wantValid = b
			}
		}
		want := map[string]Entry{}
		wantBatches := 0
		for i, st := range after {
			if st.end <= wantValid {
				want, wantBatches = st.image, i+1
			}
		}
		got := map[string]Entry{}
		gotBatches, _, _, gotValid := foldBatches(damaged, got)
		if gotValid != wantValid {
			t.Fatalf("cut %d, byte %d ^ %#x: valid = %d, want %d", end, pos, xor, gotValid, wantValid)
		}
		if gotBatches != wantBatches || !sameImage(got, want) {
			t.Fatalf("cut %d, byte %d ^ %#x: %d batches %v, want the first %d acked: %v", end, pos, xor, gotBatches, got, wantBatches, want)
		}
	})
}
