// Package matmul implements the paper's evaluation workload (Section 6,
// Fig. 6): a master/slave parallel matrix multiplication A×B = C.
//
// Matrix B is replicated onto every cluster node with a one-sided
// invocation of Init; sets of rows of A form tasks handed to slaves with
// asynchronous invocations of Multiply; the master polls result handles,
// merges finished row blocks into C, and immediately reassigns freed
// slaves — exactly the WHILE-loop of the paper's code skeleton.
//
// In modeled mode the floating-point work is charged to the simulated
// CPU without executing it, so large problem sizes sweep quickly; in
// exact mode the arithmetic really runs and the result is verifiable.
// Both modes ship the real operand bytes, so communication behaviour is
// identical.
package matmul

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"jsymphony"
)

// ClassName is the registered class of the slave object.
const ClassName = "matmul.Matrix"

func init() {
	// ~6 KB of byte-code, the scale of a small numeric class.
	jsymphony.RegisterClass(ClassName, 6144, func() any { return &Matrix{} })
	jsymphony.RegisterClass("matmul.Aux", 2048, func() any { return &Aux{} })
}

// Matrix is the slave class of Fig. 6: it holds the replicated B and
// multiplies row blocks of A against it.
type Matrix struct {
	DimN  int       // shared dimension (columns of A = rows of B)
	DimB2 int       // columns of B and C
	B     []float32 // replicated B, row-major DimN × DimB2
	Model bool      // charge CPU without executing arithmetic

	mu sync.Mutex // methods execute concurrently (one proc per RMI)
}

// Task is one unit of work: a block of rows of A.
type Task struct {
	Row0 int       // first row index
	Rows int       // number of rows
	A    []float32 // row-major Rows × DimN
}

// Result carries the finished block of C back to the master.
type Result struct {
	Row0 int
	Rows int
	C    []float32 // row-major Rows × DimB2
}

// Init replicates B onto the node (the paper's one-sided init).
func (m *Matrix) Init(ctx *jsymphony.Ctx, dimN, dimB2 int, b []float32, model bool) {
	m.mu.Lock()
	m.DimN = dimN
	m.DimB2 = dimB2
	m.B = b
	m.Model = model
	m.mu.Unlock()
}

// Ready reports whether B has been replicated onto this node — the
// master's barrier probe after the one-sided copy.
func (m *Matrix) Ready() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.DimN > 0 && len(m.B) == m.DimN*m.DimB2
}

// snapshot waits for Init to land (a one-sided init races the first
// task: method executions are concurrent, so Multiply tolerates arriving
// first) and returns the replicated operands.
func (m *Matrix) snapshot(ctx *jsymphony.Ctx) (dimN, dimB2 int, b []float32, model bool, err error) {
	for i := 0; ; i++ {
		m.mu.Lock()
		dimN, dimB2, b, model = m.DimN, m.DimB2, m.B, m.Model
		m.mu.Unlock()
		if dimN > 0 && len(b) == dimN*dimB2 {
			return dimN, dimB2, b, model, nil
		}
		if i > 5000 {
			return 0, 0, nil, false, errors.New("matmul: B never initialized on this node")
		}
		ctx.P.Sleep(2 * time.Millisecond)
	}
}

// Multiply computes one task's block of C (the paper's multiply).
func (m *Matrix) Multiply(ctx *jsymphony.Ctx, t Task) (Result, error) {
	dimN, dimB2, B, model, err := m.snapshot(ctx)
	if err != nil {
		return Result{}, err
	}
	if len(t.A) != t.Rows*dimN {
		return Result{}, fmt.Errorf("matmul: task has %d elements, want %d", len(t.A), t.Rows*dimN)
	}
	flops := 2 * float64(t.Rows) * float64(dimN) * float64(dimB2)
	ctx.Compute(flops)
	c := make([]float32, t.Rows*dimB2)
	if !model {
		for i := 0; i < t.Rows; i++ {
			arow := t.A[i*dimN : (i+1)*dimN]
			crow := c[i*dimB2 : (i+1)*dimB2]
			for k, a := range arow {
				if a == 0 {
					continue
				}
				brow := B[k*dimB2 : (k+1)*dimB2]
				for j, b := range brow {
					crow[j] += a * b
				}
			}
		}
	}
	return Result{Row0: t.Row0, Rows: t.Rows, C: c}, nil
}

// Aux mirrors the paper's auxiliary class (array initialization and task
// setup helpers exposed as a remote class for completeness).
type Aux struct{}

// Fill initializes an n-element pseudo-random vector.  The seed crosses
// the wire (a *rand.Rand cannot), and the generator is constructed from
// it explicitly — never the process-global math/rand source.
func (a *Aux) Fill(n int, seed int64) []float32 {
	return FillRand(rand.New(rand.NewSource(seed)), n)
}

// FillRand initializes an n-element pseudo-random vector from an
// explicit seeded generator.
func FillRand(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = rng.Float32()
	}
	return out
}

// Config parameterizes one master/slave run.
type Config struct {
	N           int  // matrices are N×N
	RowsPerTask int  // rows of A per task (default N/(4·nodes), min 1)
	Nodes       int  // cluster size requested from JRS
	Model       bool // model the arithmetic instead of executing it
	Seed        int64
}

// Stats reports one run.
type Stats struct {
	Elapsed time.Duration // makespan observed by the master
	Tasks   int           // tasks distributed
	Nodes   int           // cluster nodes actually used
	C       []float32     // the product in exact mode (nil in modeled)
}

// Run executes the Fig. 6 master/slave program on a JavaSymphony
// session.
func Run(js *jsymphony.JS, cfg Config) (Stats, error) {
	if cfg.N <= 0 || cfg.Nodes <= 0 {
		return Stats{}, errors.New("matmul: N and Nodes must be positive")
	}
	rowsPerTask := cfg.RowsPerTask
	if rowsPerTask <= 0 {
		// ~8 tasks per node: fine enough that a slow workstation
		// receiving the last task cannot straggle the whole run, coarse
		// enough that per-RMI overhead stays small.
		rowsPerTask = cfg.N / (8 * cfg.Nodes)
		if rowsPerTask < 1 {
			rowsPerTask = 1
		}
	}

	// Allocate cluster and distribute the codebase (Fig. 6 prologue).
	cluster, err := js.NewCluster(cfg.Nodes, nil)
	if err != nil {
		return Stats{}, err
	}
	defer cluster.Free()
	cb := js.NewCodebase()
	if err := cb.Add(ClassName); err != nil {
		return Stats{}, err
	}
	if err := cb.Load(cluster); err != nil {
		return Stats{}, err
	}
	cb.Free()

	// Initialize A, B (the master owns them) and replicate B.
	n := cfg.N
	A, B := Operands(cfg)

	start := js.Now()
	nodes := cluster.NrNodes()
	slaves := make([]*jsymphony.Object, nodes)
	for i := 0; i < nodes; i++ {
		node, err := cluster.Node(i)
		if err != nil {
			return Stats{}, err
		}
		slaves[i], err = js.NewObject(ClassName, node, nil)
		if err != nil {
			return Stats{}, err
		}
		// Copy matrix B to all cluster nodes, one-sided (Fig. 6).
		if err := slaves[i].OInvoke("Init", n, n, B, cfg.Model); err != nil {
			return Stats{}, err
		}
	}

	// Replication barrier: the one-sided copy of B is fire-and-forget,
	// so a lossy link (fault injection) can silently eat it, and every
	// Multiply on that slave would stall waiting for operands.  Probe
	// each slave with a cheap synchronous call — retried and deduped
	// under faults — and replicate again, synchronously this time, if B
	// never arrived.  Patience scales with the total transfer so slow
	// links are not mistaken for loss.
	patience := 2*time.Second + time.Duration(len(B)*4*nodes)*time.Second/1_000_000
	for i := 0; i < nodes; i++ {
		deadline := js.Now() + patience
		resent := false
		for {
			ok, err := slaves[i].SInvoke("Ready")
			if err != nil {
				return Stats{}, err
			}
			if ok.(bool) {
				break
			}
			if js.Now() >= deadline {
				if resent {
					return Stats{}, errors.New("matmul: B replication never completed")
				}
				if _, err := slaves[i].SInvoke("Init", n, n, B, cfg.Model); err != nil {
					return Stats{}, err
				}
				resent = true
				deadline = js.Now() + patience
			}
			js.Sleep(25 * time.Millisecond)
		}
	}

	nrTasks := n / rowsPerTask
	if n%rowsPerTask != 0 {
		nrTasks++
	}
	var C []float32
	if !cfg.Model {
		C = make([]float32, n*n)
	}

	// The paper's WHILE-loop: nodeBusy[i] < 0 means free.
	nodeBusy := make([]int, nodes)
	handles := make([]*jsymphony.ResultHandle, nodes)
	for i := range nodeBusy {
		nodeBusy[i] = -1
	}
	nextTask := 0
	outstanding := 0
	assign := func(i int) error {
		row0 := nextTask * rowsPerTask
		rows := rowsPerTask
		if row0+rows > n {
			rows = n - row0
		}
		task := Task{Row0: row0, Rows: rows, A: A[row0*n : (row0+rows)*n]}
		h, err := slaves[i].AInvoke("Multiply", task)
		if err != nil {
			return err
		}
		handles[i] = h
		nodeBusy[i] = nextTask
		nextTask++
		outstanding++
		return nil
	}
	merge := func(i int) error {
		res, err := handles[i].Result()
		if err != nil {
			return err
		}
		r := res.(Result)
		if C != nil {
			copy(C[r.Row0*n:], r.C)
		}
		nodeBusy[i] = -1
		handles[i] = nil
		outstanding--
		return nil
	}

	for nextTask < nrTasks || outstanding > 0 {
		progressed := false
		for i := 0; i < nodes; i++ {
			if nodeBusy[i] >= 0 && handles[i].IsReady() {
				if err := merge(i); err != nil {
					return Stats{}, err
				}
				progressed = true
			}
			if nodeBusy[i] < 0 && nextTask < nrTasks {
				if err := assign(i); err != nil {
					return Stats{}, err
				}
				progressed = true
			}
		}
		if !progressed {
			js.Sleep(time.Millisecond) // the paper's polling loop
		}
	}
	for i := range slaves {
		_ = slaves[i].Free()
	}
	return Stats{
		Elapsed: js.Now() - start,
		Tasks:   nrTasks,
		Nodes:   nodes,
		C:       C,
	}, nil
}

// RunSequential is the paper's one-node baseline: "a sequential matrix
// multiplication that does not use JavaSymphony at all".  In modeled
// mode the 2·N³ flops are charged to the master's CPU; in exact mode the
// product is computed for verification.
func RunSequential(js *jsymphony.JS, cfg Config) (Stats, error) {
	if cfg.N <= 0 {
		return Stats{}, errors.New("matmul: N must be positive")
	}
	n := cfg.N
	A, B := Operands(cfg)
	start := js.Now()
	js.Compute(2 * float64(n) * float64(n) * float64(n))
	var C []float32
	if !cfg.Model {
		C = Multiply(A, B, n)
	}
	return Stats{Elapsed: js.Now() - start, Tasks: 1, Nodes: 1, C: C}, nil
}

// Operands returns the run's input matrices A and B, a pure function of
// cfg.Seed and cfg.N.  External verifiers (chaos tests, the recovery
// experiment) regenerate them to check a run's product independently.
// The generator derivation (cfg.Seed + 1) is part of that contract:
// changing it would silently invalidate every committed benchmark
// artifact, so it is fixed here and only here.
func Operands(cfg Config) (A, B []float32) {
	return OperandsRand(rand.New(rand.NewSource(cfg.Seed+1)), cfg.N)
}

// OperandsRand generates the input matrices from an explicit seeded
// generator, drawing A[i] then B[i] per element (the historical draw
// order, which keeps inputs bit-identical for a given stream).
func OperandsRand(rng *rand.Rand, n int) (A, B []float32) {
	A = make([]float32, n*n)
	B = make([]float32, n*n)
	for i := range A {
		A[i] = rng.Float32()
		B[i] = rng.Float32()
	}
	return A, B
}

// Multiply is the reference sequential product, used for verification.
func Multiply(A, B []float32, n int) []float32 {
	C := make([]float32, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			a := A[i*n+k]
			if a == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				C[i*n+j] += a * B[k*n+j]
			}
		}
	}
	return C
}

func init() {
	// Values crossing RMI inside []any must be registered.
	jsymphony.RegisterWireType(Task{})
	jsymphony.RegisterWireType(Result{})
}
