package rmi

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"jsymphony/internal/budget"
	"jsymphony/internal/rmi/wire"
)

// TestMapOrderGolden pins the two canonical map orders on keys where
// they disagree.  A vocabulary map sorts by key string, so "aa" comes
// before "b"; any other map sorts by encoded key, whose length prefix
// comes first, so "b" (01 62) comes before "aa" (02 61 61).  Changing
// either order changes artifact and WAL bytes.
func TestMapOrderGolden(t *testing.T) {
	for _, c := range []struct {
		v    any
		want []byte
	}{
		{map[string]int{"b": 1, "aa": 2}, []byte{2, 2, 'a', 'a', 4, 1, 'b', 2}},
		{map[layoutID]int{"b": 1, "aa": 2}, []byte{2, 1, 'b', 2, 2, 'a', 'a', 4}},
	} {
		l, err := layoutOf(reflect.TypeOf(c.v))
		if err != nil {
			t.Fatal(err)
		}
		if got := l.enc(nil, reflect.ValueOf(c.v)); !bytes.Equal(got, c.want) {
			t.Errorf("%T encodes as % x, want % x", c.v, got, c.want)
		}
	}
}

// sortedEncode is the reference a vocabulary map encode must equal: the
// count, then the entries sorted afresh, with no key-order cache.
func sortedEncode[V any](m map[string]V, appendV func([]byte, V) []byte) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := wire.AppendUvarint(nil, uint64(len(m)))
	for _, k := range keys {
		buf = appendV(wire.AppendString(buf, k), m[k])
	}
	return buf
}

// mapCodec is one vocabulary map type: its encoder, the uncached
// reference encoder's element appender, and a value for a key.
type mapCodec[V any] struct {
	enc     func([]byte, map[string]V) []byte
	appendV func([]byte, V) []byte
	val     func(int) V
}

var (
	codecSS = mapCodec[string]{appendMapSS, wire.AppendString, func(i int) string { return fmt.Sprint("v", i) }}
	codecSI = mapCodec[int]{appendMapSI, func(b []byte, v int) []byte { return wire.AppendVarint(b, int64(v)) }, func(i int) int { return i - 300 }}
	codecSF = mapCodec[float64]{appendMapSF, wire.AppendFloat64, func(i int) float64 { return float64(i) / 3 }}
)

// check fails t unless m encodes, from the front of a used buffer, as
// the reference does.
func (c mapCodec[V]) check(t *testing.T, m map[string]V, step int, after string) {
	want := sortedEncode(m, c.appendV)
	got := c.enc([]byte{0xEE}, m)
	if !bytes.Equal(got[1:], want) || got[0] != 0xEE {
		t.Errorf("step %d, after %s: %d-key %T encodes differently from a fresh sort", step, after, len(m), m)
	}
}

// mutate takes one random step on m: an insert, a delete, a same-size
// replace (one key out, another in), or a value update.  Sizes drift
// toward target.
func (c mapCodec[V]) mutate(rng *rand.Rand, m map[string]V, target int) string {
	key := func() string { return fmt.Sprintf("k%04d", rng.IntN(2000)) }
	some := func() string {
		for k := range m {
			return k
		}
		return ""
	}
	op := rng.IntN(4)
	switch {
	case len(m) < target && rng.IntN(3) > 0:
		op = 0
	case len(m) > target && rng.IntN(3) > 0:
		op = 1
	}
	if len(m) == 0 {
		op = 0
	}
	switch op {
	case 0:
		m[key()] = c.val(rng.IntN(1000))
		return "insert"
	case 1:
		delete(m, some())
		return "delete"
	case 2:
		k := key()
		if _, ok := m[k]; !ok {
			delete(m, some())
			m[k] = c.val(rng.IntN(1000))
		}
		return "replace"
	default:
		m[some()] = c.val(rng.IntN(1000))
		return "update"
	}
}

// walk drives one map of c's type through random steps and checks its
// encoding after every step, and after each step that rebuilds it as a
// fresh map of the same contents.
func (c mapCodec[V]) walk(t *testing.T, seed uint64, steps int) {
	rng := rand.New(rand.NewPCG(seed, 42))
	m := map[string]V{}
	target := 0
	for i := 0; i < steps && !t.Failed(); i++ {
		if i%200 == 0 {
			target = rng.IntN(601)
		}
		c.check(t, m, i, c.mutate(rng, m, target))
		if rng.IntN(100) == 0 {
			m = maps.Clone(m)
			c.check(t, m, i, "a fresh copy")
		}
	}
}

// TestMapOrderCacheProperty: random inserts, deletes, same-size
// replaces and value updates on maps of 0 to 600 keys, of each
// vocabulary map type; after every step the encode must equal a fresh
// sort's.  A cached order that outlived its key set shows here as a
// missing entry, a zero value for a deleted key, or a wrong count.
func TestMapOrderCacheProperty(t *testing.T) {
	const steps = 3000
	codecSS.walk(t, 1, steps)
	codecSI.walk(t, 2, steps)
	codecSF.walk(t, 3, steps)
}

// TestMapOrderCacheConcurrent: GOMAXPROCS goroutines encode at once,
// each a map of its own that it mutates between encodes, and maps they
// all share: among them more live maps than the key-order cache has
// entries, so each evicts another's order.
func TestMapOrderCacheConcurrent(t *testing.T) {
	fill := func(m map[string]int, prefix string, n int) map[string]int {
		for i := 0; i < n; i++ {
			m[fmt.Sprintf("%s%03d", prefix, i)] = i
		}
		return m
	}
	shared := []map[string]int{fill(map[string]int{}, "s", 340), fill(map[string]int{}, "t", 20)}
	for i := 0; i <= orderEntries; i++ {
		shared = append(shared, fill(map[string]int{}, fmt.Sprint("c", i, "."), 48))
	}
	want := make([][]byte, len(shared))
	for i, m := range shared {
		want[i] = sortedEncode(m, codecSI.appendV)
	}

	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 7))
			own := fill(map[string]int{}, fmt.Sprint("w", w, "."), 16+rng.IntN(300))
			for i := 0; i < 400; i++ {
				for j, m := range shared {
					if got := appendMapSI(nil, m); !bytes.Equal(got, want[j]) {
						t.Errorf("worker %d: shared map %d encodes differently from a fresh sort", w, j)
						return
					}
				}
				codecSI.mutate(rng, own, 150)
				if got, ref := appendMapSI(nil, own), sortedEncode(own, codecSI.appendV); !bytes.Equal(got, ref) {
					t.Errorf("worker %d, step %d: its own %d-key map encodes differently from a fresh sort", w, i, len(own))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMapOrderCacheRoundRobin: eight maps of 48 keys, allocated back to
// back so that they lie at one stride in the heap, are encoded in turn.
// After the first round every encode is a hit and costs its buffer
// alone, the one allocation of the budget's repeat-encode row, wherever
// the maps lie: a hit depends on how many maps were encoded since, not
// on their addresses.
func TestMapOrderCacheRoundRobin(t *testing.T) {
	if budget.RaceEnabled {
		t.Skip("the race runtime allocates on its own account, so allocation counts do not hold under it")
	}
	const n = 8
	maps := make([]any, n)
	for i := range maps {
		m := make(map[string]int, 48)
		for k := 0; k < 48; k++ {
			m[fmt.Sprintf("m%d.%02d", i, k)] = k
		}
		maps[i] = m
	}
	round := func() {
		for _, m := range maps {
			MustMarshal(m)
		}
	}
	round()
	if got := testing.AllocsPerRun(20, round); got > n {
		t.Errorf("a round of %d encodes costs %.1f allocations, want %d: some map's order was sorted again", n, got, n)
	}
}
