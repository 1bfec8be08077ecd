package params

import (
	"fmt"
	"strings"
)

// Constraint is one relational condition over a system parameter, the
// unit of the paper's JSConstraints (§4.2):
//
//	system_parameter relational_operator number_string
type Constraint struct {
	Param ID
	Op    Op
	Want  Value
}

// Eval reports whether the constraint holds for snapshot s.  A parameter
// absent from the snapshot fails every constraint except NE: an unknown
// machine must not be admitted by "idle >= 50", but is legitimately
// "name != milena".
func (c Constraint) Eval(s Snapshot) bool {
	v, ok := s.Get(c.Param)
	if !ok {
		return c.Op == NE
	}
	return Compare(v, c.Op, c.Want)
}

// String renders the constraint in the paper's syntax.
func (c Constraint) String() string {
	return fmt.Sprintf("%s %s %s", c.Param, c.Op, c.Want)
}

// Constraints is a conjunction of constraints — the paper's JSConstraints
// object.  The zero value is an empty set that every snapshot satisfies.
type Constraints struct {
	list []Constraint
}

// NewConstraints returns an empty constraint set.
func NewConstraints() *Constraints { return &Constraints{} }

// Set adds a constraint, mirroring
// JSConstraints.setConstraints(system_parameter, relational_operator,
// number_string).  The value may be a string, any Go integer or float, or
// a Value.  Invalid parameters and operators are reported as errors so a
// shell can surface typos.
func (cs *Constraints) Set(param ID, op string, value any) error {
	if !IsValid(param) {
		return fmt.Errorf("params: unknown system parameter %q", param)
	}
	o, err := ParseOp(op)
	if err != nil {
		return err
	}
	var v Value
	switch x := value.(type) {
	case Value:
		v = x
	case string:
		v = Text(x)
	case float64:
		v = Float(x)
	case float32:
		v = Float(float64(x))
	case int:
		v = Int(x)
	case int32:
		v = Float(float64(x))
	case int64:
		v = Float(float64(x))
	case uint:
		v = Float(float64(x))
	default:
		return fmt.Errorf("params: unsupported constraint value type %T", value)
	}
	cs.list = append(cs.list, Constraint{Param: param, Op: o, Want: v})
	return nil
}

// MustSet is Set for literal constraints; it panics on error.
func (cs *Constraints) MustSet(param ID, op string, value any) *Constraints {
	if err := cs.Set(param, op, value); err != nil {
		panic(err)
	}
	return cs
}

// Eval reports whether every constraint holds for s (conjunction).
func (cs *Constraints) Eval(s Snapshot) bool {
	if cs == nil {
		return true
	}
	for _, c := range cs.list {
		if !c.Eval(s) {
			return false
		}
	}
	return true
}

// Len reports the number of constraints.
func (cs *Constraints) Len() int {
	if cs == nil {
		return 0
	}
	return len(cs.list)
}

// Clone returns an independent copy of the set (nil-safe).
func (cs *Constraints) Clone() *Constraints {
	if cs == nil {
		return nil
	}
	return &Constraints{list: append([]Constraint(nil), cs.list...)}
}

// And returns a new set holding the conjunction of cs and o (either may
// be nil).
func (cs *Constraints) And(o *Constraints) *Constraints {
	out := cs.Clone()
	if out == nil {
		out = NewConstraints()
	}
	if o != nil {
		out.list = append(out.list, o.list...)
	}
	return out
}

// String renders the set one constraint per line.
func (cs *Constraints) String() string {
	if cs == nil || len(cs.list) == 0 {
		return "(no constraints)"
	}
	parts := make([]string, len(cs.list))
	for i, c := range cs.list {
		parts[i] = c.String()
	}
	return strings.Join(parts, " && ")
}

// Wire is the serializable form of a constraint set for RMI transport.
type Wire []Constraint

// Wire converts the set for transmission (nil-safe).
func (cs *Constraints) Wire() Wire {
	if cs == nil {
		return nil
	}
	return append(Wire(nil), cs.list...)
}

// FromWire reconstructs a constraint set.
func FromWire(w Wire) *Constraints {
	if w == nil {
		return nil
	}
	return &Constraints{list: append([]Constraint(nil), w...)}
}
