package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// TestPaperResultDigests pins the results of the three experiments the
// paper itself reports and that have no committed artifact: Figure 5 at
// TestFigure5Shape's reduced sweep, E2 (mandel) and E3 (automigrate).
// Each is pinned by the SHA-256 of its artifact encoding, which for
// Figure 5 includes every point's full metrics snapshot, so a change
// that moves virtual time or registers a metric family at a different
// moment fails here.  The digests live in testdata/paper_digests.txt;
// a change that moves these results on purpose copies the new digests
// from the failure messages and says so.
func TestPaperResultDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("three paper sweeps in -short mode")
	}
	want := readDigests(t)
	for _, c := range []struct {
		name string
		run  func() Result
	}{
		{"fig5", func() Result {
			return Figure5Result{Points: Figure5(Figure5Config{Sizes: []int{200, 800}, MaxNodes: 13, Seed: 1})}
		}},
		{"mandel", func() Result { return Mandel(0, 1) }},
		{"automigrate", func() Result {
			off, on := E3(defaultE3Config(1))
			return E3Pair{Off: off, On: on}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			b, err := encodeArtifact(c.run())
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got := hex.EncodeToString(sum[:])
			if got != want[c.name] {
				t.Errorf("%s: artifact digest %s, want %s", c.name, got, want[c.name])
			}
		})
	}
}

// readDigests parses testdata/paper_digests.txt: one "name sha256" pair
// a line; blank lines and lines starting with # are skipped.
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/paper_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("paper_digests.txt: malformed line %q", line)
		}
		out[name] = strings.TrimSpace(sum)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
