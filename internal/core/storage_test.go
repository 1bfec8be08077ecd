package core

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
)

// TestStorageContract drives all four Storage methods, success and
// error paths, through both bundled implementations.
func TestStorageContract(t *testing.T) {
	impls := []struct {
		name string
		mk   func(t *testing.T) Storage
	}{
		{"mem", func(t *testing.T) Storage { return NewMemStorage() }},
		{"file", func(t *testing.T) Storage {
			fs, err := NewFileStorage(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			t.Run("get-missing-is-ErrNotFound", func(t *testing.T) {
				s := impl.mk(t)
				_, err := s.Get("absent")
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("Get(absent) = %v, want errors.Is(_, ErrNotFound)", err)
				}
			})
			t.Run("put-get-roundtrip", func(t *testing.T) {
				s := impl.mk(t)
				rec := PersistRecord{
					Class:   "Counter",
					State:   []byte{1, 2, 3},
					Replica: &replica.Policy{N: 2, Mode: replica.Eventual, Reads: []string{"Get"}, MinSync: 1},
				}
				if err := s.Put("k", rec); err != nil {
					t.Fatal(err)
				}
				got, err := s.Get("k")
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, rec) {
					t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, rec)
				}
			})
			t.Run("put-overwrites", func(t *testing.T) {
				s := impl.mk(t)
				must(t, s.Put("k", PersistRecord{Class: "A"}))
				must(t, s.Put("k", PersistRecord{Class: "B"}))
				got, err := s.Get("k")
				if err != nil || got.Class != "B" {
					t.Fatalf("after overwrite: %+v, %v", got, err)
				}
			})
			t.Run("delete-then-get-misses", func(t *testing.T) {
				s := impl.mk(t)
				must(t, s.Put("k", PersistRecord{Class: "A"}))
				must(t, s.Delete("k"))
				if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
					t.Fatalf("Get after Delete = %v, want ErrNotFound", err)
				}
			})
			t.Run("delete-absent-is-not-an-error", func(t *testing.T) {
				s := impl.mk(t)
				if err := s.Delete("never-stored"); err != nil {
					t.Fatalf("Delete(absent) = %v", err)
				}
			})
			t.Run("keys-lists-stored", func(t *testing.T) {
				s := impl.mk(t)
				must(t, s.Put("b", PersistRecord{}))
				must(t, s.Put("a", PersistRecord{}))
				keys, err := s.Keys()
				if err != nil {
					t.Fatal(err)
				}
				sort.Strings(keys)
				if !reflect.DeepEqual(keys, []string{"a", "b"}) {
					t.Fatalf("Keys = %v", keys)
				}
			})
		})
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestFileStorageErrorPaths exercises the failure branches the
// in-memory store cannot reach: I/O errors are reported (not swallowed
// into ErrNotFound), and corrupt records fail to decode.
func TestFileStorageErrorPaths(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	fs, err := NewFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt record: decode error, NOT ErrNotFound.
	if err := os.WriteFile(filepath.Join(dir, "bad.jsobj"), []byte("not a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Get("bad"); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(corrupt) = %v, want a decode error distinct from ErrNotFound", err)
	}
	// A record written by the retired gob codec (format tag 0x47) is
	// ErrCodec, never decoded (the FileStorage contract).
	if err := os.WriteFile(filepath.Join(dir, "old.jsobj"), []byte{0x47, 0x2a, 0xff, 0x81}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Get("old"); !errors.Is(err, rmi.ErrCodec) || !strings.Contains(err.Error(), "0x47") {
		t.Fatalf("Get(gob-era record) = %v, want rmi.ErrCodec for format tag 0x47", err)
	}
	// PersistRecord{Class: "Counter", State: {1}} as written while the
	// record still ended in the shard-group manifest's nil flag (the
	// last byte): it fails, never decodes.
	grouped, err := hex.DecodeString("561b12636f72652e506572736973745265636f72640c07436f756e74657201010000")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "grouped.jsobj"), grouped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Get("grouped"); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(record with a trailing group flag) = %v, want a decode error", err)
	}
	// Directory gone: Put, Keys, and Get all surface I/O errors; the Get
	// error is a miss (the file does not exist).
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put("k", PersistRecord{}); err == nil {
		t.Fatal("Put into removed dir succeeded")
	}
	if _, err := fs.Keys(); err == nil {
		t.Fatal("Keys on removed dir succeeded")
	}
	if _, err := fs.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on removed dir = %v, want ErrNotFound", err)
	}
}
