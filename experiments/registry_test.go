package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// reduced runs an entry below its committed scale where the full run is
// slow and the reduced one exercises the same code; entries not listed
// run through Entry.Run at full scale.
var reduced = map[string]func(seed int64) Result{
	"serve": func(seed int64) Result {
		cfg := defaultServeConfig(seed)
		cfg.Ops, cfg.Ramp = 400, time.Second
		return Serve(cfg)
	},
	"recover": func(seed int64) Result {
		cfg := defaultRecoverConfig(seed)
		cfg.Objects, cfg.Replicated = 120, 8
		return Recover(cfg)
	},
}

// TestRegistry holds every entry to the registry's contract, and every
// entry with a committed artifact to what makes that artifact diffable
// in CI: the same seed twice renders byte-identical JSON — every
// latency, quantile, counter and timestamp derives from the virtual
// clock, nothing from the host — and another seed renders different
// JSON, so neither the generators nor the simulation ignore the seed.
// The entries run in parallel, so the twin comparison also fails if two
// experiments share mutable state.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.Name] {
			t.Errorf("experiment %q registered twice", e.Name)
		}
		seen[e.Name] = true
		if lines := strings.Split(e.Banner, "\n"); len(lines) != 2 {
			t.Errorf("%s: banner has %d lines, want 2", e.Name, len(lines))
		}
		if e.Artifact == "" {
			continue
		}
		if want := "BENCH_" + e.Name + ".json"; e.Artifact != want {
			t.Errorf("%s: artifact %q, want %q", e.Name, e.Artifact, want)
		}
		if _, err := os.Stat(filepath.Join("..", e.Artifact)); err != nil {
			t.Errorf("%s: committed artifact missing: %v", e.Name, err)
		}
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			run := reduced[e.Name]
			if run == nil {
				if testing.Short() && e.Name == "place" {
					t.Skip("full twin-run sweep in -short mode")
				}
				run = func(seed int64) Result { return e.Run(Params{Seed: seed}) }
			}
			render := func(seed int64) []byte {
				b, err := encodeArtifact(run(seed))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			a, b := render(1), render(1)
			if len(a) == 0 {
				t.Fatal("empty artifact")
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("twin seed-1 runs rendered different artifacts:\n%s\n----\n%s", a, b)
			}
			if bytes.Equal(a, render(2)) {
				t.Fatal("seeds 1 and 2 rendered identical artifacts")
			}
		})
	}
}

// TestReadmeNamesEveryExperiment keeps the one hand-written list honest
// (jsbench's own help is generated from the registry).
func TestReadmeNamesEveryExperiment(t *testing.T) {
	text, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Registry {
		if !bytes.Contains(text, []byte("-experiment "+e.Name)) {
			t.Errorf("README.md quick start lacks `jsbench -experiment %s`", e.Name)
		}
	}
}

// TestNothingNamesAMissingExperiment checks the registry in the other
// direction: every `jsbench -experiment NAME` in the docs names an entry
// (or "all"), and every committed BENCH_*.json is some entry's artifact,
// so a retired experiment leaves neither a command nor a file behind.
func TestNothingNamesAMissingExperiment(t *testing.T) {
	names, artifacts := map[string]bool{"all": true}, map[string]bool{}
	for _, e := range Registry {
		names[e.Name] = true
		artifacts[e.Artifact] = true
	}
	cmd := regexp.MustCompile(`jsbench\s+-experiment\s+(\w+)`)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		text, err := os.ReadFile(filepath.Join("..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cmd.FindAllSubmatch(text, -1) {
			if !names[string(m[1])] {
				t.Errorf("%s names `jsbench -experiment %s`, which is not registered", doc, m[1])
			}
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !artifacts[filepath.Base(f)] {
			t.Errorf("%s is no registered experiment's artifact", filepath.Base(f))
		}
	}
}

// TestWriteArtifact: the one writer names the path when it fails and
// never replaces a file with a result it could not encode.
func TestWriteArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.json")
	if err := WriteArtifact(path, map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	want := "{\n  \"x\": 1\n}\n"
	if got, _ := os.ReadFile(path); string(got) != want {
		t.Fatalf("wrote %q, want %q", got, want)
	}
	if err := WriteArtifact(path, make(chan int)); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("unencodable value: err = %v, want one naming %s", err, path)
	}
	if got, _ := os.ReadFile(path); string(got) != want {
		t.Fatalf("failed encode clobbered the file: %q", got)
	}
	missing := filepath.Join(t.TempDir(), "no", "such", "dir.json")
	if err := WriteArtifact(missing, 1); err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("unwritable path: err = %v, want one naming %s", err, missing)
	}
}
