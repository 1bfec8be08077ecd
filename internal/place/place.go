// Package place defines the static placement hints exchanged between
// the affinity analyzer (cmd/jsplace) and the runtime: co-location
// groups of tagged object-creation sites, cut from the workload's
// static invocation-affinity graph by a node-budgeted partitioner
// (DESIGN.md §14).
//
// The format is deliberately small and stable: a workload package
// commits the generated jsplace.json next to its source, embeds it, and
// hands it to JS.InstallPlacementHints before creating objects.  Core
// then renders each group as a params.Constraints co-location set
// (node.name == <group node>) at creation time, before the first RMI —
// the node itself is only known at run time, so the hint names the
// group and the runtime resolves it to a node.
//
// Determinism invariant: Encode is byte-stable — groups sorted by ID,
// members sorted by (site, index), fixed JSON field order, two-space
// indent, trailing newline — so a committed hints file diffs cleanly
// against a regeneration (jsplace -check, CI lint job).
package place

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// MainSite is the synthetic site naming the application driver (the
// annotated entry function) in the affinity graph.  The group holding
// it is anchored to the application's home node at run time.
const MainSite = "main"

// Member is one object instance of a co-location group: the creation
// site's tag plus the instance index within the site's fanout.
type Member struct {
	Site  string `json:"site"`
	Index int    `json:"index"`
}

// Group is one co-location set: its members should be created on the
// same node.  Weight is the total affinity (static invocation weight)
// internal to the group — the traffic the co-location makes local.
type Group struct {
	ID      int      `json:"id"`
	Members []Member `json:"members"`
	Weight  int64    `json:"weight"`
}

// Hints is one workload's placement oracle output.
type Hints struct {
	Workload string  `json:"workload"` // import path of the analyzed package
	Budget   int     `json:"budget"`   // node budget the partition was cut for
	Groups   []Group `json:"groups"`
}

// Lookup resolves a tagged creation site instance to its group id.
func (h *Hints) Lookup(site string, idx int) (gid int, ok bool) {
	if h == nil {
		return 0, false
	}
	for _, g := range h.Groups {
		for _, m := range g.Members {
			if m.Site == site && m.Index == idx {
				return g.ID, true
			}
		}
	}
	return 0, false
}

// MainGroup returns the id of the group containing the driver vertex,
// if any.
func (h *Hints) MainGroup() (gid int, ok bool) {
	return h.Lookup(MainSite, 0)
}

// Normalize sorts groups and members into the canonical order Encode
// relies on.
func (h *Hints) Normalize() {
	for i := range h.Groups {
		ms := h.Groups[i].Members
		sort.Slice(ms, func(a, b int) bool {
			if ms[a].Site != ms[b].Site {
				return ms[a].Site < ms[b].Site
			}
			return ms[a].Index < ms[b].Index
		})
	}
	sort.Slice(h.Groups, func(a, b int) bool { return h.Groups[a].ID < h.Groups[b].ID })
}

// Encode renders the hints in the canonical byte-stable form.
func Encode(h *Hints) []byte {
	h.Normalize()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(h); err != nil {
		panic(err) // the type marshals by construction
	}
	return buf.Bytes()
}

// Decode parses and validates a hints file: every member must appear in
// exactly one group.
func Decode(data []byte) (*Hints, error) {
	var h Hints
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("place: bad hints: %w", err)
	}
	seen := make(map[Member]int)
	for _, g := range h.Groups {
		for _, m := range g.Members {
			if prev, dup := seen[m]; dup {
				return nil, fmt.Errorf("place: %s[%d] appears in groups %d and %d", m.Site, m.Index, prev, g.ID)
			}
			seen[m] = g.ID
		}
	}
	return &h, nil
}
