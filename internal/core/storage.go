package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
)

// ErrNotFound marks a Storage.Get miss: nothing is stored under the
// key.  Both bundled implementations wrap it, so callers distinguish
// "absent" from real storage failures with errors.Is.
var ErrNotFound = errors.New("core: stored object not found")

// PersistRecord is one stored object (paper §4.7): its class and
// serialized state, retrievable under a unique string key.  Replica is
// non-nil when the object was replicated at store time: App.Load uses
// it to re-materialize the replica set on restore.
type PersistRecord struct {
	Class   string
	State   []byte
	Replica *replica.Policy
	// Group is non-nil when the record is a shard-group manifest written
	// by ShardGroup.Store: it carries the ring membership and per-member
	// state keys that App.LoadShardGroup restores.
	Group *GroupRecord
}

// GroupRecord captures a shard group's identity for external storage.
// Members are the ring member *names* in ring order: consistent-hash
// key ownership is a pure function of them, so restoring a group under
// the same member names reproduces ownership exactly, no matter where
// the restored shards are placed.
type GroupRecord struct {
	Name          string
	Class         string
	Vnodes        int
	Reads         []string
	KeysMethod    string
	ExtractMethod string
	InstallMethod string
	Replication   *replica.Policy
	Members       []string // ring member names, ring (sorted) order
	ShardKeys     []string // parallel: storage key of each member's state
}

// Storage is the external storage persistent objects go to.
type Storage interface {
	// Put stores rec under key, overwriting any previous record.
	Put(key string, rec PersistRecord) error
	// Get retrieves the record stored under key.
	Get(key string) (PersistRecord, error)
	// Delete removes a record (absent keys are not an error).
	Delete(key string) error
	// Keys lists stored keys.
	Keys() ([]string, error)
}

// MemStorage is an in-memory Storage, the default for simulations.
type MemStorage struct {
	mu   sync.Mutex
	recs map[string]PersistRecord
}

// NewMemStorage returns an empty in-memory store.
func NewMemStorage() *MemStorage {
	return &MemStorage{recs: make(map[string]PersistRecord)}
}

// Put implements Storage.
func (m *MemStorage) Put(key string, rec PersistRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs[key] = rec
	return nil
}

// Get implements Storage.
func (m *MemStorage) Get(key string) (PersistRecord, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.recs[key]
	if !ok {
		return PersistRecord{}, fmt.Errorf("core: no stored object %q: %w", key, ErrNotFound)
	}
	return rec, nil
}

// Delete implements Storage.
func (m *MemStorage) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.recs, key)
	return nil
}

// Keys implements Storage.
func (m *MemStorage) Keys() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.recs))
	for k := range m.recs {
		out = append(out, k)
	}
	return out, nil
}

// FileStorage persists records as files in a directory, one file per
// key — real external storage for real deployments.  Records go through
// rmi.Marshal, so each file starts with a format tag.  Contract: a file
// in a format this codec does not define fails Get with rmi.ErrCodec
// instead of decoding — in particular a .jsobj written by the retired
// gob codec (unknown format tag 0x47).  A record's layout carries no
// field names, so a record written before PersistRecord gained a field
// fails the same way.
type FileStorage struct {
	dir string
	mu  sync.Mutex
}

// NewFileStorage creates (if needed) and uses dir.
func NewFileStorage(dir string) (*FileStorage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: storage dir: %w", err)
	}
	return &FileStorage{dir: dir}, nil
}

// path maps a key to a file name, escaping separators.
func (f *FileStorage) path(key string) string {
	safe := strings.NewReplacer("/", "_", "\\", "_", ":", "_").Replace(key)
	return filepath.Join(f.dir, safe+".jsobj")
}

// Put implements Storage.
func (f *FileStorage) Put(key string, rec PersistRecord) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	data, err := rmi.Marshal(rec)
	if err != nil {
		return err
	}
	return os.WriteFile(f.path(key), data, 0o644)
}

// Get implements Storage.
func (f *FileStorage) Get(key string) (PersistRecord, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	data, err := os.ReadFile(f.path(key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return PersistRecord{}, fmt.Errorf("core: no stored object %q: %w", key, ErrNotFound)
		}
		return PersistRecord{}, fmt.Errorf("core: no stored object %q: %w", key, err)
	}
	var rec PersistRecord
	if err := rmi.Unmarshal(data, &rec); err != nil {
		return PersistRecord{}, err
	}
	return rec, nil
}

// Delete implements Storage.
func (f *FileStorage) Delete(key string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	err := os.Remove(f.path(key))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Keys implements Storage.
func (f *FileStorage) Keys() ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ents, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if name, ok := strings.CutSuffix(e.Name(), ".jsobj"); ok {
			out = append(out, name)
		}
	}
	return out, nil
}
