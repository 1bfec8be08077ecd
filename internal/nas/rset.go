package nas

// Replica-set registry: the directory mirrors each application's replica
// sets (published by the AppOA whenever a set changes) so installation
// tooling — the JS-Shell's "replicas" command in particular — can list
// every replicated object without walking the applications.  The
// authoritative copy stays with the owning AppOA; this is a display and
// diagnostics view, keyed by the object's "<app>/<id>" string.

import (
	"sort"
	"time"

	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
)

// RSetInfo is the directory's record of one replicated object.  Mode is
// carried as a plain string to keep nas decoupled from the replica
// package's vocabulary.
type RSetInfo struct {
	Key      string // "<app>/<id>"
	Primary  string
	Replicas []string
	Mode     string
	Lease    time.Duration
}

// putRSet upserts one record.
func (d *Directory) putRSet(info RSetInfo) {
	d.mu.Lock()
	d.rsets[info.Key] = info
	d.mu.Unlock()
}

// delRSet removes one record (absent keys are not an error).
func (d *Directory) delRSet(key string) {
	d.mu.Lock()
	delete(d.rsets, key)
	d.mu.Unlock()
}

// ReplicaSets returns the registered sets sorted by key.
func (d *Directory) ReplicaSets() []RSetInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]RSetInfo, 0, len(d.rsets))
	for _, info := range d.rsets {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// PutReplicaSet publishes (or refreshes) a replica set in the directory.
func PutReplicaSet(p sched.Proc, st *rmi.Station, dirNode string, info RSetInfo) error {
	_, err := st.Call(p, dirNode, DirService, "rsetPut", rmi.MustMarshal(info), 5*time.Second)
	return err
}

// DelReplicaSet removes a replica set from the directory.
func DelReplicaSet(p sched.Proc, st *rmi.Station, dirNode string, key string) error {
	_, err := st.Call(p, dirNode, DirService, "rsetDel", rmi.MustMarshal(key), 5*time.Second)
	return err
}
