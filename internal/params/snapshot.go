package params

import (
	"sort"
	"strings"
)

// Snapshot is one node's (or one aggregated architecture component's) view
// of the system parameters at a point in time.  Network agents produce
// snapshots; managers average them across their children (paper §5.1:
// "system parameters for clusters, sites, and domains are averaged across
// the contained nodes").
type Snapshot map[ID]Value

// Clone returns an independent copy.
func (s Snapshot) Clone() Snapshot {
	out := make(Snapshot, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Get returns the value for id and whether it is present.
func (s Snapshot) Get(id ID) (Value, bool) {
	v, ok := s[id]
	return v, ok
}

// Set stores v under id.
func (s Snapshot) Set(id ID, v Value) { s[id] = v }

// SetFloat stores a numeric parameter.
func (s Snapshot) SetFloat(id ID, f float64) { s[id] = Float(f) }

// SetText stores a string parameter.
func (s Snapshot) SetText(id ID, str string) { s[id] = Text(str) }

// IDs returns the present parameter ids in sorted order.
func (s Snapshot) IDs() []ID {
	out := make([]ID, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the snapshot one parameter per line, sorted, the way the
// JS-Shell "params" command prints it.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, id := range s.IDs() {
		b.WriteString(string(id))
		b.WriteString(" = ")
		b.WriteString(s[id].String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Average combines node snapshots into one aggregate snapshot for a
// cluster, site, or domain.  Numeric parameters are arithmetic means over
// the snapshots that carry them.  String parameters keep their value only
// if every contributing snapshot agrees; otherwise they are dropped, since
// an "average host name" is meaningless and a constraint over a
// non-uniform string parameter must not match the aggregate.
//
// Average(nil) and Average() return an empty snapshot.
func Average(snaps ...Snapshot) Snapshot {
	out := make(Snapshot)
	if len(snaps) == 0 {
		return out
	}
	type acc struct {
		sum   float64
		n     int
		str   string
		sOK   bool // string seen and consistent so far
		sSeen bool
	}
	accs := make(map[ID]*acc)
	for _, snap := range snaps {
		for id, v := range snap {
			a := accs[id]
			if a == nil {
				a = &acc{sOK: true}
				accs[id] = a
			}
			if v.Kind == Number {
				a.sum += v.Num
				a.n++
				continue
			}
			if !a.sSeen {
				a.str, a.sSeen = v.Str, true
			} else if a.str != v.Str {
				a.sOK = false
			}
		}
	}
	for id, a := range accs {
		switch {
		case a.n > 0:
			out[id] = Float(a.sum / float64(a.n))
		case a.sSeen && a.sOK:
			out[id] = Text(a.str)
		}
	}
	return out
}
