package core

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
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
					Group: &GroupRecord{
						Name: "g", Class: "Table", Vnodes: 8,
						Members:   []string{"g#0", "g#1"},
						ShardKeys: []string{"k/g#0", "k/g#1"},
					},
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

// TestShardGroupStoreRestoresRing is the regression test for group
// persistence: a stored sharded group must re-materialize with
// byte-identical ring membership — member names, not placement, own the
// keys — so every key resolves to the shard holding its data.
func TestShardGroupStoreRestoresRing(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		cb := a.NewCodebase()
		if err := cb.Add("Table"); err != nil {
			t.Fatal(err)
		}
		if err := cb.LoadNodes(p, w.Nodes()...); err != nil {
			t.Fatal(err)
		}
		g, err := a.NewShardGroup(p, "t", "Table", ShardSpec{Shards: 3, Reads: []string{"Get", "Len"}})
		if err != nil {
			t.Fatal(err)
		}
		// Grow once so member indices are not the trivial 0..S-1 run:
		// restore must recover the real ring, and the seq high-water mark.
		if _, err := g.Grow(p, ""); err != nil {
			t.Fatal(err)
		}
		keys := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
		owners := make(map[string]string, len(keys))
		for i, k := range keys {
			if _, err := g.Invoke(p, k, "Put", k, 100+i); err != nil {
				t.Fatal(err)
			}
			owners[k] = g.Owner(k)
		}
		storedMembers := g.Shards()
		skey, err := g.Store(p, "group-backup")
		if err != nil {
			t.Fatal(err)
		}

		// Restore into a second application (same world storage): the
		// stored group is self-contained.
		b, err := w.Register(w.Nodes()[1])
		if err != nil {
			t.Fatal(err)
		}
		defer b.Unregister(p)
		cb2 := b.NewCodebase()
		if err := cb2.Add("Table"); err != nil {
			t.Fatal(err)
		}
		if err := cb2.LoadNodes(p, w.Nodes()...); err != nil {
			t.Fatal(err)
		}
		g2, err := b.LoadShardGroup(p, skey)
		if err != nil {
			t.Fatal(err)
		}
		if got := g2.Shards(); !reflect.DeepEqual(got, storedMembers) {
			t.Fatalf("restored ring %v, stored ring %v", got, storedMembers)
		}
		for i, k := range keys {
			if own := g2.Owner(k); own != owners[k] {
				t.Fatalf("key %q owned by %s after restore, was %s", k, own, owners[k])
			}
			v, err := g2.Invoke(p, k, "Get", k)
			if err != nil {
				t.Fatal(err)
			}
			if v.(int) != 100+i {
				t.Fatalf("key %q = %v after restore, want %d", k, v, 100+i)
			}
		}
		// A post-restore Grow must not collide with a restored member name.
		sname, err := g2.Grow(p, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range storedMembers {
			if sname == m {
				t.Fatalf("grown shard reused restored member name %s", sname)
			}
		}
	})
}

// TestLoadShardGroupRejectsNonGroup pins the manifest discrimination:
// a plain object record is not loadable as a group.
func TestLoadShardGroupRejectsNonGroup(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		obj, err := a.NewObject(p, "Counter", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		k, err := obj.Store(p, "plain")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.LoadShardGroup(p, k); err == nil {
			t.Fatal("LoadShardGroup accepted a plain object record")
		}
		if _, err := a.LoadShardGroup(p, "no-such-key"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("LoadShardGroup(absent) = %v, want ErrNotFound", err)
		}
	})
}
