package place

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzHintsDecode throws arbitrary bytes at the hints decoder: it either
// fails or returns hints that pass validation — every member in exactly
// one group — and that survive the canonical encoding byte for byte.
// Never a panic.
func FuzzHintsDecode(f *testing.F) {
	for _, w := range []string{"jacobi", "kv", "matmul"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "workloads", w, "jsplace.json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"groups":[{"id":1,"members":[{"site":"a","index":0}]},{"id":2,"members":[{"site":"a","index":0}]}]}`))
	f.Add([]byte(`{"groups":null}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := Decode(data)
		if err != nil {
			return
		}
		seen := make(map[Member]bool)
		for _, g := range h.Groups {
			for _, m := range g.Members {
				if seen[m] {
					t.Fatalf("decoded hints place %s[%d] in two groups", m.Site, m.Index)
				}
				seen[m] = true
			}
		}
		enc := Encode(h)
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, enc)
		}
		if re := Encode(again); !bytes.Equal(re, enc) {
			t.Fatalf("canonical encoding not stable:\n%s\nvs\n%s", enc, re)
		}
	})
}
