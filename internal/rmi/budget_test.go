package rmi

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"jsymphony/internal/budget"
	"jsymphony/internal/rmi/wire"
	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
)

// budgetRow is one ceiling of the package's allocation budget.  ledger
// names the BENCHMARK.json ledger row it mirrors, where one exists; the
// ceiling is the row's count, and a change that lowers a count lowers
// its ceiling.
type budgetRow struct {
	name, ledger string
	ceiling      float64
	run          func(t *testing.T) float64
}

// runBudget checks the rows table files under the running test's name.
func runBudget(t *testing.T, table map[string][]budgetRow) {
	if budget.RaceEnabled {
		t.Skip("the race runtime allocates on its own account, so allocation budgets do not hold under it")
	}
	rows := table[t.Name()]
	if len(rows) == 0 {
		t.Fatalf("the budget table has no rows for %s", t.Name())
	}
	for _, row := range rows {
		name := row.name
		if row.ledger != "" {
			name += " (" + row.ledger + ")"
		}
		if got := row.run(t); got > row.ceiling {
			t.Errorf("%s: %.1f allocs, ceiling %.1f", name, got, row.ceiling)
		} else {
			t.Logf("%s: %.1f allocs, ceiling %.1f", name, got, row.ceiling)
		}
	}
}

// encodes pins v's encoded size exactly and returns the allocations of
// one Marshal.  v arrives as an any, as a protocol body's fields do, so
// the count holds no boxing at this call.
func encodes(v any, size int) func(t *testing.T) float64 {
	return func(t *testing.T) float64 {
		if got := len(MustMarshal(v)); got != size {
			t.Errorf("%T encodes to %d bytes, want %d", v, got, size)
		}
		return testing.AllocsPerRun(100, func() { MustMarshal(v) })
	}
}

// decodes returns the allocations of one Unmarshal of v's encoding into
// a fresh target: the target, its strings and whatever the body does
// not alias.
func decodes(v any, fresh func() any) func(t *testing.T) float64 {
	return func(t *testing.T) float64 {
		body := MustMarshal(v)
		return testing.AllocsPerRun(100, func() {
			if err := Unmarshal(body, fresh()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// callAllocs returns the allocations of one synchronous call of a
// 64-byte echo between two stations of w, both stations' work and the
// transport's included.
func callAllocs(t *testing.T, w *world, p sched.Proc) float64 {
	body := make([]byte, 64)
	names := nodeNames(2)
	a, b := newStation(t, w, names[0]), newStation(t, w, names[1])
	defer func() { a.Close(); b.Close() }()
	call := func() {
		if _, err := a.Call(p, names[1], "echo", "ping", body, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // warm: pools and grown queues
		call()
	}
	return testing.AllocsPerRun(2000, call)
}

// layoutEncodes returns the allocations of one layout encode of v into
// a buffer with room to spare.
func layoutEncodes(v reflect.Value) func(t *testing.T) float64 {
	return func(t *testing.T) float64 {
		l, _ := layoutOf(v.Type())
		buf := make([]byte, 0, 256)
		return testing.AllocsPerRun(100, func() { buf = l.enc(buf[:0], v) })
	}
}

// stationBudget is the package's allocation budget, one group of rows
// per test: a call between two stations on each network; the encode
// and decode of representative bodies, whose encoded sizes it pins
// exactly; and the layout codec on a flat struct.
func stationBudget() map[string][]budgetRow {
	// The representative bodies: a request with a 96-byte body, a
	// control-plane batch, a mixed argument vector and a bulk float32
	// operand block.
	var msg any = benchMessage()
	var batch Batch
	for i := 0; i < 16; i++ {
		batch.MustAppend(&Message{
			From: "n00", To: "n01", Kind: KindOneWay, ID: uint64(i),
			Service: "oas.pub", Method: "replicaAuthRenew",
		})
	}
	var args any = benchArgs()
	operands := make([]float32, 4096)
	for i := range operands {
		operands[i] = 1.0 / float32(i+1)
	}
	// A float vector body whose count claims 10⁶ elements and whose
	// bytes hold enough for a count at one byte per element, too few
	// for the elements.
	claim := append(wire.AppendUvarint(nil, 1e6), make([]byte, 1e6)...)
	// A 340-key table, as sim_serve's shards hold once touched: encoded
	// again unchanged, it reuses its sorted key order.
	table := make(map[string]int, 340)
	for i := 0; i < 340; i++ {
		table[fmt.Sprintf("key%03d", i)] = i
	}
	var tableAny any = table
	// A map below the key-order cache's size, as the kv counter's table
	// is on every durable write: its keys sort on the stack.
	var smallAny any = map[string]int{"c": 3, "a": 1, "b": 2}
	// A heartbeat-shaped map: 49 parameters under a named string key.
	snap := make(layoutSnap, 49)
	for i := 0; i < 49; i++ {
		snap[layoutID(fmt.Sprintf("param.%02d", i))] = layoutVal{Kind: layoutKind(i % 2), Num: float64(i), Str: "sparc"[:i%6]}
	}
	// A layout reads a flat struct, and a []any field whether or not its
	// struct is addressable, through reflect accessors that allocate
	// nothing beyond the buffer.
	flat := &layoutFlat{I: 1, S: "s", ID: "id"}
	withArgs := &struct {
		N    int
		Args []any
	}{N: 1, Args: []any{7, "s", true, 2.5}}

	return map[string][]budgetRow{
		"TestStationAllocBudget": {
			{"Call on the simulated fabric", "rmi.call_fab_allocs", 2, func(t *testing.T) float64 {
				w := fabWorld(simnet.UniformCluster(simnet.Ultra10_300, 2))
				p, done := sched.AdoptVirtual(w.s, "caller")
				got := callAllocs(t, w, p)
				done()
				w.join()
				return got
			}},
			{"Call on the in-memory network", "rmi.call_mem_allocs", 4, func(t *testing.T) float64 {
				w := realWorld("mem-real", func(s sched.Sched) Network { return NewMem(s, 0) })
				return callAllocs(t, w, sched.RealProc(w.s))
			}},
			{"Call over loopback TCP", "rmi.call_tcp_allocs", 10, func(t *testing.T) float64 {
				w := realWorld("tcp-real", func(s sched.Sched) Network { return NewTCP(s) })
				return callAllocs(t, w, sched.RealProc(w.s))
			}},
		},
		"TestWireAllocCeiling": {
			{"message encode", "wire.msg_enc_allocs", 1, encodes(msg, 128)},
			{"message decode", "wire.msg_dec_allocs", 5, decodes(msg, func() any { return new(Message) })},
			{"batch16 encode", "", 1, encodes(batch, 677)},
			{"batch16 decode", "", 1, decodes(batch, func() any { return new(Batch) })},
			{"args encode", "", 1, encodes(args, 33)},
			{"args decode", "", 8, decodes(args, func() any { return new([]any) })},
			{"float32x4096 encode", "", 1, encodes(operands, 16388)},
			{"float32x4096 decode", "", 3, decodes(operands, func() any { return new([]float32) })},
			// A corrupt count fails before anything is allocated.  Each
			// decoder is called directly, so the cursor stays on the stack.
			{"float32 vector claiming 10⁶ elements in 10⁶ bytes, decode", "", 0, func(t *testing.T) float64 {
				return testing.AllocsPerRun(10, func() {
					d := wire.NewDec(claim)
					if decFloat32s(&d) != nil || !errors.Is(d.Err(), wire.ErrTruncated) {
						t.Fatalf("decode = %v, want wire.ErrTruncated", d.Err())
					}
				})
			}},
			{"float64 vector claiming 10⁶ elements in 10⁶ bytes, decode", "", 0, func(t *testing.T) float64 {
				return testing.AllocsPerRun(10, func() {
					d := wire.NewDec(claim)
					if decFloat64s(&d) != nil || !errors.Is(d.Err(), wire.ErrTruncated) {
						t.Fatalf("decode = %v, want wire.ErrTruncated", d.Err())
					}
				})
			}},
			{"repeat encode of an unchanged 340-key map[string]int", "", 1, encodes(tableAny, 3000)},
			{"encode of a 3-key map[string]int", "", 1, encodes(smallAny, 12)},
			// The target, the map (its header, directory, table and
			// groups) and one backing for all 340 keys.
			{"340-key map[string]int decode", "", 6, decodes(tableAny, func() any { return new(any) })},
		},
		"TestLayoutFlatAllocs": {
			{"flat struct layout encode", "", 0, layoutEncodes(reflect.ValueOf(flat).Elem())},
			{"[]any field layout encode, struct by value", "", 0, layoutEncodes(reflect.ValueOf(*withArgs))},
			{"[]any field layout encode, struct addressed", "", 0, layoutEncodes(reflect.ValueOf(withArgs).Elem())},
			{"49-entry map layout encode", "", 0, layoutEncodes(reflect.ValueOf(snap))},
			// The target and its one multi-byte string; the cursor is pooled.
			{"flat struct decode", "", 2, decodes(flat, func() any { return new(layoutFlat) })},
		},
	}
}

// TestStationAllocBudget: one synchronous call of a 64-byte echo
// between two stations on the simulated fabric, the in-memory network
// and loopback TCP.
func TestStationAllocBudget(t *testing.T) { runBudget(t, stationBudget()) }

// TestWireAllocCeiling: one allocation per encode of the representative
// bodies, the returned buffer, and a small fixed count per decode, the
// target and its strings; the body aliases the input.
func TestWireAllocCeiling(t *testing.T) { runBudget(t, stationBudget()) }

// TestLayoutFlatAllocs: the layout codec on a flat struct and on a
// []any field.
func TestLayoutFlatAllocs(t *testing.T) { runBudget(t, stationBudget()) }
