package nas

// Replica-set registry: the directory mirrors each application's replica
// sets (published by the AppOA whenever a set changes), keyed by the
// object's "<app>/<id>" string.  The authoritative copy stays with the
// owning AppOA, and the JS-Shell's "replicas" command reads that copy;
// only tests read the mirror.

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
func (d *Directory) putRSet(_ sched.Proc, info RSetInfo) error {
	d.mu.Lock()
	d.rsets[info.Key] = info
	d.mu.Unlock()
	return nil
}

// delRSet removes one record (absent keys are not an error).
func (d *Directory) delRSet(_ sched.Proc, key string) error {
	d.mu.Lock()
	delete(d.rsets, key)
	d.mu.Unlock()
	return nil
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
