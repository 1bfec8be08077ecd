package params

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Snapshot is one node's (or one aggregated architecture component's) view
// of the system parameters at a point in time.  Network agents produce
// snapshots; managers average them across their children (paper §5.1:
// "system parameters for clusters, sites, and domains are averaged across
// the contained nodes").
//
// A snapshot is dense: one Value slot per catalog entry, indexed by the
// parameter's ordinal, and a presence bitmap.  Copies share storage, as
// copies of a map do.  The zero Snapshot is empty and read-only, as a
// nil map is; NewSnapshot, Clone and Average return writable ones.
type Snapshot struct{ d *slots }

type slots struct {
	has uint64 // bit o set: parameter o is present
	v   [nParams]Value
}

// sortedOrd lists the ordinals in sorted-ID order, the order IDs and
// String report.
var sortedOrd = func() (ord [nParams]uint8) {
	for o := range ord {
		ord[o] = uint8(o)
	}
	slices.SortFunc(ord[:], func(a, b uint8) int { return strings.Compare(string(catalog[a].ID), string(catalog[b].ID)) })
	return ord
}()

// NewSnapshot returns an empty, writable snapshot.
func NewSnapshot() Snapshot { return Snapshot{new(slots)} }

// Clone returns an independent, writable copy.
func (s Snapshot) Clone() Snapshot {
	out := NewSnapshot()
	if s.d != nil {
		*out.d = *s.d
	}
	return out
}

// Get returns the value for id and whether it is present.
func (s Snapshot) Get(id ID) (Value, bool) {
	o, ok := byID[id]
	if !ok || s.d == nil || s.d.has&(1<<o) == 0 {
		return Value{}, false
	}
	return s.d.v[o], true
}

// SetFloat stores a numeric parameter.
func (s Snapshot) SetFloat(id ID, f float64) { s.SetAt(SlotOf(id), Float(f)) }

// SetText stores a string parameter.
func (s Snapshot) SetText(id ID, str string) { s.SetAt(SlotOf(id), Text(str)) }

// Slot is a parameter's ordinal, its place in a Snapshot.  A writer that
// sets the same parameters over and over resolves their slots once with
// SlotOf and stores through SetAt, which looks no ID up.
type Slot uint8

// SlotOf returns id's slot.  An ID outside the catalog is a programming
// error and panics naming it.
func SlotOf(id ID) Slot {
	o, ok := byID[id]
	if !ok {
		panic(fmt.Sprintf("params: %q is not a cataloged parameter", id))
	}
	return Slot(o)
}

// SetAt stores v in slot o.  A value of the wrong kind, or a write to
// the zero Snapshot, is a programming error, as a write to a nil map
// is, and panics naming the parameter.
func (s Snapshot) SetAt(o Slot, v Value) {
	switch in := &catalog[o]; {
	case in.Kind != v.Kind:
		panic(fmt.Sprintf("params: %s holds a %s, not a %s", in.ID, kindNames[in.Kind], kindNames[v.Kind]))
	case s.d == nil:
		panic(fmt.Sprintf("params: %s set in the zero Snapshot", in.ID))
	}
	s.d.has |= 1 << o
	s.d.v[o] = v
}

var kindNames = [...]string{Number: "number", String: "string"}

// IDs returns the present parameter ids in sorted order.
func (s Snapshot) IDs() []ID {
	var has uint64
	if s.d != nil {
		has = s.d.has
	}
	out := make([]ID, 0, bits.OnesCount64(has))
	for _, o := range sortedOrd {
		if has&(1<<o) != 0 {
			out = append(out, catalog[o].ID)
		}
	}
	return out
}

// String renders the snapshot one parameter per line, sorted, the way the
// JS-Shell "params" command prints it.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, id := range s.IDs() {
		v, _ := s.Get(id)
		b.WriteString(string(id))
		b.WriteString(" = ")
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Average combines node snapshots into one aggregate snapshot for a
// cluster, site, or domain.  Numeric parameters are arithmetic means over
// the snapshots that carry them, summed in the order of snaps.  String
// parameters keep their value only if every contributing snapshot agrees;
// otherwise they are dropped, since an "average host name" is meaningless
// and a constraint over a non-uniform string parameter must not match the
// aggregate.
//
// Average(nil) and Average() return an empty snapshot.
func Average(snaps ...Snapshot) Snapshot {
	out := NewSnapshot()
	var (
		n             [nParams]int
		seen, differs uint64 // string parameters seen, and seen to differ
	)
	acc := &out.d.v
	for _, s := range snaps {
		if s.d == nil {
			continue
		}
		for has := s.d.has; has != 0; has &= has - 1 {
			o := bits.TrailingZeros64(has)
			v := &s.d.v[o]
			switch {
			case v.Kind == Number:
				acc[o].Num += v.Num
				n[o]++
			case seen&(1<<o) == 0:
				acc[o].Str = v.Str
				seen |= 1 << o
			case acc[o].Str != v.Str:
				differs |= 1 << o
			}
		}
	}
	for o := range acc {
		switch {
		case n[o] > 0:
			acc[o] = Float(acc[o].Num / float64(n[o]))
		case seen&^differs&(1<<o) != 0:
			acc[o] = Text(acc[o].Str)
		default:
			acc[o] = Value{}
			continue
		}
		out.d.has |= 1 << o
	}
	return out
}
