package metrics

import (
	"bytes"
	"strings"
	"testing"
	"unicode/utf8"
)

// hostileValues are label values an application key space can throw at
// the exporter: quotes, backslashes, braces, commas, newlines, control
// bytes, and invalid UTF-8.
var hostileValues = []string{
	`plain`,
	`with"quote`,
	`back\slash`,
	"new\nline",
	`brace}comma,eq=`,
	"tab\tand\x00nul",
	string([]byte{0xff, 0xfe, 'k'}), // invalid UTF-8
	`{le="+Inf"}`,
	"",
}

// TestLabelRoundTrip checks Label → ParseLabels recovers hostile label
// values byte-exact.
func TestLabelRoundTrip(t *testing.T) {
	for _, v := range hostileValues {
		name := Label("js_shard_key_heat", "group", "kv", "key", v)
		base, kv, err := ParseLabels(name)
		if err != nil {
			t.Fatalf("ParseLabels(%q): %v", name, err)
		}
		if base != "js_shard_key_heat" {
			t.Fatalf("base = %q", base)
		}
		if len(kv) != 4 || kv[0] != "group" || kv[1] != "kv" || kv[2] != "key" || kv[3] != v {
			t.Fatalf("round trip of %q gave %q", v, kv)
		}
	}
}

// TestParseLabelsErrors checks malformed bodies are rejected, not
// misparsed.
func TestParseLabelsErrors(t *testing.T) {
	for _, name := range []string{
		`m{key}`, `m{key=}`, `m{key=unquoted}`, `m{key="open}`,
	} {
		if _, _, err := ParseLabels(name); err == nil {
			t.Fatalf("ParseLabels(%q) accepted garbage", name)
		}
	}
	if base, kv, err := ParseLabels("m_plain"); err != nil || base != "m_plain" || len(kv) != 0 {
		t.Fatalf("plain name parse = %q %v %v", base, kv, err)
	}
}

// TestPrometheusHostileLabels checks the exposition output stays
// line-parseable under hostile label values: every emitted line is one
// line, quotes inside values are escaped, and bytes the format cannot
// carry are sanitized rather than emitted raw.
func TestPrometheusHostileLabels(t *testing.T) {
	r := NewRegistry()
	for _, v := range hostileValues {
		r.Counter(Label("js_keys_total", "key", v)).Inc()
		r.Gauge(Label("js_shard_key_heat", "group", "kv", "key", v)).Set(1)
	}
	h := r.Histogram(Label("js_lat_us", "key", `he said "hi"\`), []int64{10})
	h.Observe(5)

	var b bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !utf8.ValidString(line) {
			t.Fatalf("invalid UTF-8 leaked into exposition line %q", line)
		}
		for _, c := range line {
			if c < 0x20 || c == 0x7f {
				t.Fatalf("raw control byte %q leaked into line %q", c, line)
			}
		}
		// A metric line is name{labels} value: the label body must keep
		// its quoting balanced (every interior quote escaped).
		if open := strings.IndexByte(line, '{'); open >= 0 {
			close := strings.LastIndexByte(line, '}')
			if close < open {
				t.Fatalf("unbalanced braces in line %q", line)
			}
			body := line[open+1 : close]
			quotes := 0
			for i := 0; i < len(body); i++ {
				switch body[i] {
				case '\\':
					i++
				case '"':
					quotes++
				}
			}
			if quotes%2 != 0 {
				t.Fatalf("unbalanced quotes in label body %q", body)
			}
		}
	}
	if !strings.Contains(out, `\"hi\"`) {
		t.Fatalf("quote escaping missing from output:\n%s", out)
	}
	if !strings.Contains(out, "�") {
		t.Fatalf("control/invalid bytes were not sanitized:\n%s", out)
	}
}

// TestQuantileEdgeCases covers the histogram-quantile satellite: empty
// histograms, a single sample at p999, and overflow-only content.
func TestQuantileEdgeCases(t *testing.T) {
	empty := HistSnap{Bounds: []int64{10, 100}, Counts: []int64{0, 0, 0}}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty quantile(%v) = %d, want 0", q, got)
		}
	}

	single := HistSnap{Bounds: []int64{10, 100}, Counts: []int64{0, 1, 0}, Count: 1, Sum: 42}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if got := single.Quantile(q); got != 100 {
			t.Fatalf("single-sample quantile(%v) = %d, want bucket bound 100", q, got)
		}
	}

	// All mass in overflow: the estimate must not undershoot below the
	// last bound, and uses the mean when that is larger.
	over := HistSnap{Bounds: []int64{10}, Counts: []int64{0, 2}, Count: 2, Sum: 2000}
	if got := over.Quantile(0.999); got != 1000 {
		t.Fatalf("overflow quantile = %d, want mean 1000", got)
	}

	// No finite buckets at all.
	bare := HistSnap{Counts: []int64{3}, Count: 3, Sum: 300}
	if got := bare.Quantile(0.5); got != 100 {
		t.Fatalf("bare quantile = %d, want mean 100", got)
	}

	// Sanity on a spread distribution: monotone in q.
	h := HistSnap{Bounds: []int64{10, 100, 1000}, Counts: []int64{50, 40, 9, 1}, Count: 100, Sum: 5000}
	p50, p99, p999 := h.Quantile(0.5), h.Quantile(0.99), h.Quantile(0.999)
	if p50 != 10 || p99 != 1000 || p999 > 1000 && p999 < p99 {
		t.Fatalf("quantiles = %d %d %d", p50, p99, p999)
	}
}
