package wire

import (
	"errors"
	"math"
	"testing"
	"time"

	"jsymphony/internal/budget"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendUvarint(buf, 0)
	buf = AppendUvarint(buf, 1<<63)
	buf = AppendVarint(buf, -1)
	buf = AppendVarint(buf, math.MaxInt64)
	buf = AppendVarint(buf, math.MinInt64)
	buf = AppendBool(buf, true)
	buf = AppendBool(buf, false)
	buf = AppendDuration(buf, -5*time.Second)
	buf = AppendFloat64(buf, math.Pi)
	buf = AppendFloat64(buf, math.Inf(-1))
	buf = AppendString(buf, "héllo\x00world")
	buf = AppendString(buf, "")
	buf = AppendBytes(buf, []byte{0xde, 0xad})
	buf = AppendBytes(buf, nil)
	buf = AppendStrings(buf, []string{"a", "", "ccc"})
	buf = AppendStrings(buf, nil)

	d := NewDec(buf)
	if got := d.Uvarint(); got != 0 {
		t.Fatalf("uvarint = %d", got)
	}
	if got := d.Uvarint(); got != 1<<63 {
		t.Fatalf("uvarint = %d", got)
	}
	if got := d.Varint(); got != -1 {
		t.Fatalf("varint = %d", got)
	}
	if got := d.Varint(); got != math.MaxInt64 {
		t.Fatalf("varint = %d", got)
	}
	if got := d.Varint(); got != math.MinInt64 {
		t.Fatalf("varint = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bools corrupted")
	}
	if got := d.Duration(); got != -5*time.Second {
		t.Fatalf("duration = %v", got)
	}
	if got := d.Float64(); got != math.Pi {
		t.Fatalf("float = %v", got)
	}
	if got := d.Float64(); !math.IsInf(got, -1) {
		t.Fatalf("float = %v", got)
	}
	if got := d.String(); got != "héllo\x00world" {
		t.Fatalf("string = %q", got)
	}
	if got := d.String(); got != "" {
		t.Fatalf("string = %q", got)
	}
	if got := d.Bytes(); string(got) != "\xde\xad" {
		t.Fatalf("bytes = %x", got)
	}
	if got := d.Bytes(); got != nil {
		t.Fatalf("bytes = %x, want nil", got)
	}
	ss := d.Strings()
	if len(ss) != 3 || ss[0] != "a" || ss[1] != "" || ss[2] != "ccc" {
		t.Fatalf("strings = %q", ss)
	}
	if got := d.Strings(); got != nil {
		t.Fatalf("strings = %q, want nil", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}

func TestDecTruncated(t *testing.T) {
	full := AppendString(nil, "hello world")
	for cut := 0; cut < len(full); cut++ {
		d := NewDec(full[:cut])
		_ = d.String()
		if err := d.Finish(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestDecHugeLengthPrefix(t *testing.T) {
	// A length prefix claiming 2^60 bytes must fail, not allocate.
	buf := AppendUvarint(nil, 1<<60)
	d := NewDec(buf)
	d.Bytes()
	if err := d.Finish(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	d = NewDec(buf)
	d.Strings()
	if err := d.Finish(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("strings: err = %v, want ErrTruncated", err)
	}
}

// TestDecRaw: Raw reads exactly n bytes, aliasing the input and capped
// at them; more than remain fails as truncated and leaves nothing read.
func TestDecRaw(t *testing.T) {
	buf := []byte{1, 2, 3, 4, 5}
	d := NewDec(buf)
	got := d.Raw(3)
	if string(got) != "\x01\x02\x03" || cap(got) != 3 || &got[0] != &buf[0] {
		t.Fatalf("Raw(3) = %v (cap %d), want an alias of the first 3 bytes", got, cap(got))
	}
	if d.Raw(3) != nil || !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("Raw past the end: err = %v, want ErrTruncated", d.Err())
	}
	d = NewDec(buf)
	d.Raw(5)
	if err := d.Finish(); err != nil {
		t.Fatalf("Raw of the whole input: %v", err)
	}
}

func TestDecTrailingBytes(t *testing.T) {
	buf := AppendUvarint(nil, 7)
	buf = append(buf, 0xFF)
	d := NewDec(buf)
	d.Uvarint()
	if err := d.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestDecBadBool(t *testing.T) {
	d := NewDec([]byte{2})
	d.Bool()
	if err := d.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bool: err = %v, want ErrCorrupt", err)
	}
}

func TestDecStickyError(t *testing.T) {
	d := NewDec(nil)
	d.Uvarint() // fails: truncated
	// Every later getter must return zero values, not panic.
	if d.String() != "" || d.Bytes() != nil || d.Bool() || d.Float64() != 0 {
		t.Fatal("getters after error must return zero values")
	}
	if !errors.Is(d.Finish(), ErrTruncated) {
		t.Fatalf("err = %v", d.Finish())
	}
}

func TestPoolHighWater(t *testing.T) {
	p := NewPool()
	b := p.Get()
	b = append(b, make([]byte, 4096)...)
	p.Put(b)
	if hw := int(p.hw.Load()); hw != 4096 {
		t.Fatalf("high water = %d, want 4096", hw)
	}
	// A smaller buffer must not lower the mark.
	p.Put(make([]byte, 16, 32))
	if hw := int(p.hw.Load()); hw != 4096 {
		t.Fatalf("high water = %d after small put, want 4096", hw)
	}
	// New buffers come out presized to the mark.
	if b := p.Get(); cap(b) < 4096 {
		t.Fatalf("cap = %d, want >= 4096", cap(b))
	}
}

func TestPoolZeroAllocSteadyState(t *testing.T) {
	if budget.RaceEnabled {
		t.Skip("the race runtime randomly bypasses sync.Pool puts")
	}
	p := NewPool()
	// Warm: teach the arena the message size.
	for i := 0; i < 16; i++ {
		b := p.Get()
		b = append(b, make([]byte, 1024)...)
		p.Put(b)
	}
	allocs := testing.AllocsPerRun(200, func() {
		b := p.Get()
		b = append(b, 0x42)
		p.Put(b)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Get/Put allocates %.1f/op, want 0", allocs)
	}
}

// A buffer above the retain ceiling must not raise the learned size:
// if it did, every future pool miss would allocate (and then drop) a
// giant buffer — a permanent-miss loop that turns one whole-object
// migration into megabytes of allocation per small message forever
// after.
func TestPoolGiantDoesNotPoisonHighWater(t *testing.T) {
	p := NewPool()
	giant := make([]byte, 8<<20)
	p.Put(giant)
	if hw := int(p.hw.Load()); hw > poolMaxRetap {
		t.Fatalf("high water = %d after %d-byte put, want <= %d", hw, len(giant), poolMaxRetap)
	}
	if b := p.Get(); cap(b) > poolMaxRetap {
		t.Fatalf("Get cap = %d after giant put, want <= %d", cap(b), poolMaxRetap)
	}
	if budget.RaceEnabled {
		return // sync.Pool puts are randomly dropped under race
	}
	// Small traffic still pools at zero steady-state allocations.
	for i := 0; i < 16; i++ {
		b := p.Get()
		b = append(b, make([]byte, 512)...)
		p.Put(b)
	}
	allocs := testing.AllocsPerRun(200, func() {
		b := p.Get()
		b = append(b, 0x42)
		p.Put(b)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Get/Put after giant allocates %.1f/op, want 0", allocs)
	}
}

// TestStringsShareOneBacking: a string slice decodes into its slice and
// one backing for its strings, unless fewer than two of them are longer
// than one byte, which Go copies for free.  Every prefix of the
// encoding fails as the per-string decode would, at the same byte.
func TestStringsShareOneBacking(t *testing.T) {
	for _, c := range []struct {
		in     []string
		allocs float64
	}{
		{[]string{"alpha", "", "b", "gamma", "delta"}, 2},
		{[]string{"alpha", "b", "c"}, 2},
		{[]string{"a", "", "c"}, 1},
		{[]string{"n04", "n05"}, 2},
	} {
		buf := AppendStrings(nil, c.in)
		d := NewDec(buf)
		got := d.Strings()
		if err := d.Finish(); err != nil || len(got) != len(c.in) {
			t.Fatalf("%q: got %q, %v", c.in, got, err)
		}
		for i := range got {
			if got[i] != c.in[i] {
				t.Fatalf("%q: got %q", c.in, got)
			}
		}
		if !budget.RaceEnabled {
			if n := testing.AllocsPerRun(100, func() { d := NewDec(buf); d.Strings() }); n != c.allocs {
				t.Errorf("%q: %.1f allocs, want %.1f", c.in, n, c.allocs)
			}
		}
		for cut := 0; cut < len(buf); cut++ {
			d, ref := NewDec(buf[:cut]), NewDec(buf[:cut])
			d.Strings()
			for n := ref.length(); n > 0 && ref.Err() == nil; n-- {
				_ = ref.String()
			}
			if !errors.Is(d.Err(), ErrTruncated) || d.Err().Error() != ref.Err().Error() || d.off != ref.off {
				t.Fatalf("%q cut at %d: %v at %d, per-string %v at %d", c.in, cut, d.Err(), d.off, ref.Err(), ref.off)
			}
		}
	}
}
