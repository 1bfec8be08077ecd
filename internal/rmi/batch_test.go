package rmi

import (
	"errors"
	"testing"

	"jsymphony/internal/rmi/wire"
)

func TestBatchRoundTrip(t *testing.T) {
	type grant struct {
		App   string
		ID    uint64
		Until int64
	}
	var b Batch
	want := []grant{
		{App: "app-1", ID: 7, Until: 600},
		{App: "app-1", ID: 9, Until: 601},
		{App: "app-2", ID: 1, Until: 602},
	}
	for _, g := range want {
		b.MustAppend(g)
	}
	if b.Len() != len(want) {
		t.Fatalf("len = %d, want %d", b.Len(), len(want))
	}

	// The envelope itself crosses the wire like any message body.
	var decoded Batch
	if err := Unmarshal(MustMarshal(b), &decoded); err != nil {
		t.Fatalf("envelope round trip: %v", err)
	}
	if decoded.Len() != len(want) {
		t.Fatalf("decoded len = %d, want %d", decoded.Len(), len(want))
	}
	for i, w := range want {
		var g grant
		if err := decoded.Decode(i, &g); err != nil {
			t.Fatalf("decode item %d: %v", i, err)
		}
		if g != w {
			t.Fatalf("item %d = %+v, want %+v", i, g, w)
		}
	}
	if err := decoded.Decode(0, new(int)); err == nil {
		t.Fatal("decoding a struct item into *int should fail")
	}
}

// TestBatchValidatesLazily: a corrupt envelope decodes, and every Decode
// of it then fails with a typed error, before any allocation its count
// could provoke.
func TestBatchValidatesLazily(t *testing.T) {
	var good Batch
	good.MustAppend("a")
	good.MustAppend("b")
	for name, b := range map[string]Batch{
		"count past the items": {Count: 3, Buf: good.Buf},
		"huge count":           {Count: 1 << 60, Buf: good.Buf},
		"trailing bytes":       {Count: 1, Buf: good.Buf},
		"cut item":             {Count: 2, Buf: good.Buf[:len(good.Buf)-1]},
	} {
		var got Batch
		if err := Unmarshal(MustMarshal(b), &got); err != nil {
			t.Fatalf("%s: envelope: %v", name, err)
		}
		var s string
		err := got.Decode(0, &s)
		if !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: Decode(0) = %v, want a typed error", name, err)
		}
	}
}
