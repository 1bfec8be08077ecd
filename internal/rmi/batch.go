package rmi

import (
	"fmt"

	"jsymphony/internal/rmi/wire"
)

// Batch is the control-plane batching envelope: several independently
// encoded messages bound for the same destination service, shipped in
// one RMI.  The canonical user is the write-authority renewer, which
// folds one replicaAuthRenew per object into one replicaAuthBatch per
// *node* — a dead primary host then burns a single grant budget for
// all of its objects instead of one per object (ROADMAP "Per-node
// grant batching").
//
// Items are opaque to the envelope; sender and receiver agree on the
// per-item type the way they already do for unbatched messages.  Each
// item is appended straight into one shared buffer with a length
// prefix — the gob-era envelope encoded every item twice (item bytes,
// then the [][]byte envelope re-encoding them) and allocated a slice
// header per item; this one encodes each item once and allocates
// nothing beyond the buffer it fills.
//
// A Batch crosses the wire as its exported fields under its struct
// tag, and the wire experiment's gob reference (experiments/wire.go)
// encodes them too; treat them as internal.  A received envelope is
// validated by its first Decode; decode into a zero Batch.
type Batch struct {
	Count uint   // number of items
	Buf   []byte // uvarint length-prefixed item encodings, back to back
	offs  []int  // lazily built start offset of each item's prefix
}

// tagBatch is Batch's struct tag (DESIGN.md §15).
const tagBatch byte = 0x02

func init() { RegisterWire(tagBatch, Batch{}) }

// Append encodes v exactly like a message body (Marshal) and adds it to
// the batch.
func (b *Batch) Append(v any) error {
	item, err := Marshal(v)
	if err != nil {
		return err
	}
	b.Buf = wire.AppendBytes(b.Buf, item)
	b.Count++
	b.offs = nil
	return nil
}

// MustAppend is Append for internal protocol structs whose
// encodability is a program invariant.
func (b *Batch) MustAppend(v any) {
	if err := b.Append(v); err != nil {
		panic(err)
	}
}

// Len returns the number of batched items.
func (b *Batch) Len() int { return int(b.Count) }

// index scans the buffer once, checking that it holds exactly Count
// items, and memoizes each item's offset.
func (b *Batch) index() error {
	if b.offs != nil || b.Count == 0 {
		return nil
	}
	if b.Count > uint(len(b.Buf)) { // each item costs at least its length byte
		return fmt.Errorf("rmi: batch: %w: count %d exceeds %d payload bytes", wire.ErrTruncated, b.Count, len(b.Buf))
	}
	offs := make([]int, 0, b.Count)
	d := wire.NewDec(b.Buf)
	for i := 0; i < int(b.Count); i++ {
		offs = append(offs, len(b.Buf)-d.Remaining())
		d.Bytes()
		if err := d.Err(); err != nil {
			return fmt.Errorf("rmi: batch item %d: %w", i, err)
		}
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("rmi: batch: %w", err)
	}
	b.offs = offs
	return nil
}

// Decode unmarshals item i into v (a pointer).  The first Decode of a
// received envelope validates all of it: a corrupt one fails every
// Decode with a typed error.
func (b *Batch) Decode(i int, v any) error {
	if err := b.index(); err != nil {
		return err
	}
	if i < 0 || i >= len(b.offs) {
		return fmt.Errorf("rmi: batch item %d out of range [0,%d)", i, len(b.offs))
	}
	d := wire.NewDec(b.Buf[b.offs[i]:])
	item := d.Bytes()
	if err := d.Err(); err != nil {
		return err
	}
	return Unmarshal(item, v)
}
