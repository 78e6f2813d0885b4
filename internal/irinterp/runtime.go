package irinterp

import (
	"fmt"
	"math"
	"sync"

	"github.com/oraql/go-oraql/internal/ir"
)

// mailboxes provide the synchronous MPI exchange channels: one buffered
// channel per (from, to) rank pair. abort is closed when any rank
// fails, so a peer blocked on an exchange with it unwinds instead of
// waiting forever.
type mailboxes struct {
	n     int
	ch    []chan []byte
	abort chan struct{}
	once  sync.Once
}

func newMailboxes(n int) *mailboxes {
	b := &mailboxes{n: n, ch: make([]chan []byte, n*n), abort: make(chan struct{})}
	for i := range b.ch {
		b.ch[i] = make(chan []byte, 4)
	}
	return b
}

// fail aborts every pending and future exchange.
func (b *mailboxes) fail() { b.once.Do(func() { close(b.abort) }) }

func (b *mailboxes) send(from, to int, data []byte) {
	select {
	case b.ch[from*b.n+to] <- data:
	case <-b.abort:
		panic(rankAborted{})
	}
}

func (b *mailboxes) recv(from, to int) []byte {
	select {
	case data := <-b.ch[from*b.n+to]:
		return data
	case <-b.abort:
		panic(rankAborted{})
	}
}

// Intrinsic ids, resolved once per call site when a function is
// prepared.
const (
	intrUnhandled = iota + 1
	intrPrintI64
	intrPrintF64
	intrPrintStr
	intrSqrt
	intrFabs
	intrExp
	intrLog
	intrSin
	intrCos
	intrPow
	intrMinI64
	intrMaxI64
	intrMinF64
	intrMaxF64
	intrMalloc
	intrFree
	intrClock
	intrChecksumF64
	intrChecksumI64
	intrOMPFork
	intrOMPTask
	intrOMPTaskwait
	intrOMPThreadID
	intrOMPNumThreads
	intrMPIRank
	intrMPISize
	intrMPISendrecv
	intrMPIAllreduceF64
	intrGPULaunch
	intrGPUTid
	intrGPUNtid
)

var intrinsicIDs = map[string]int{
	"__print_i64": intrPrintI64, "__print_f64": intrPrintF64, "__print_str": intrPrintStr,
	"__sqrt": intrSqrt, "__fabs": intrFabs, "__exp": intrExp, "__log": intrLog,
	"__sin": intrSin, "__cos": intrCos, "__pow": intrPow,
	"__min_i64": intrMinI64, "__max_i64": intrMaxI64, "__min_f64": intrMinF64, "__max_f64": intrMaxF64,
	"__malloc": intrMalloc, "__free": intrFree, "__clock": intrClock,
	"__checksum_f64": intrChecksumF64, "__checksum_i64": intrChecksumI64,
	"__omp_fork": intrOMPFork, "__omp_task": intrOMPTask, "__omp_taskwait": intrOMPTaskwait,
	"__omp_thread_id": intrOMPThreadID, "__omp_num_threads": intrOMPNumThreads,
	"__mpi_rank": intrMPIRank, "__mpi_size": intrMPISize,
	"__mpi_sendrecv": intrMPISendrecv, "__mpi_allreduce_f64": intrMPIAllreduceF64,
	"__gpu_launch": intrGPULaunch, "__gpu_tid": intrGPUTid, "__gpu_ntid": intrGPUNtid,
}

// execCall dispatches calls: intrinsics run in the simulated runtime,
// user functions recurse through the interpreter.
func (m *machine) execCall(fr *frame, ci *cinstr) value {
	if ci.intr == 0 {
		callee := m.newFrame(m.resolve(ci, ci.in.Callee))
		for i := range ci.ops {
			callee.args = append(callee.args, m.eval(fr, &ci.ops[i]))
		}
		return m.call(callee)
	}
	arg := func(i int) value { return m.eval(fr, &ci.ops[i]) }
	switch ci.intr {
	case intrPrintI64:
		fmt.Fprintf(&m.out, "%d", arg(0).i)
	case intrPrintF64:
		fmt.Fprintf(&m.out, "%.10g", arg(0).f)
	case intrPrintStr:
		c, ok := ci.in.Operands[0].(*ir.Const)
		if !ok {
			m.trap("print_str needs a string constant")
		}
		m.out.WriteString(c.Str)
	case intrSqrt:
		return fv(math.Sqrt(arg(0).f))
	case intrFabs:
		return fv(math.Abs(arg(0).f))
	case intrExp:
		return fv(math.Exp(arg(0).f))
	case intrLog:
		return fv(math.Log(arg(0).f))
	case intrSin:
		return fv(math.Sin(arg(0).f))
	case intrCos:
		return fv(math.Cos(arg(0).f))
	case intrPow:
		return fv(math.Pow(arg(0).f, arg(1).f))
	case intrMinI64:
		return iv(min64(arg(0).i, arg(1).i))
	case intrMaxI64:
		return iv(max64(arg(0).i, arg(1).i))
	case intrMinF64:
		return fv(math.Min(arg(0).f, arg(1).f))
	case intrMaxF64:
		return fv(math.Max(arg(0).f, arg(1).f))
	case intrMalloc:
		size := (arg(0).i + 15) &^ 15
		if size < 0 {
			m.trap("malloc with negative size")
		}
		addr := m.heapPtr
		m.checkAddr(addr, size)
		m.heapPtr += size
		return iv(addr)
	case intrFree:
		// Bump allocator: free is a no-op, like many HPC arenas.
	case intrClock:
		// Deterministic per binary, volatile across binaries — the
		// verification regexes must mask lines containing it, exactly
		// as the paper masks reported runtimes.
		return iv(m.cycles + m.devCycles)
	case intrChecksumF64:
		return fv(m.checksumF64(arg(0).i, arg(1).i))
	case intrChecksumI64:
		return iv(m.checksumI64(arg(0).i, arg(1).i))
	case intrOMPFork:
		m.ompFork(ci, arg(1).i, arg(2).i)
	case intrOMPTask:
		m.tasks = append(m.tasks, pendingTask{fn: m.namedFunc(ci), ctx: arg(1).i})
	case intrOMPTaskwait:
		m.drainTasks()
	case intrOMPThreadID:
		return iv(int64(m.ompTID))
	case intrOMPNumThreads:
		return iv(int64(m.opts.NumThreads))
	case intrMPIRank:
		return iv(int64(m.rank))
	case intrMPISize:
		return iv(int64(m.opts.NumRanks))
	case intrMPISendrecv:
		m.mpiSendrecv(arg(0).i, arg(1).i, arg(2).i, arg(3).i, arg(4).i)
	case intrMPIAllreduceF64:
		return fv(m.mpiAllreduce(arg(0).f))
	case intrGPULaunch:
		m.gpuLaunch(ci, arg(1).i, arg(2).i)
	case intrGPUTid:
		return iv(m.gpuTID)
	case intrGPUNtid:
		return iv(m.gpuNtid)
	default:
		m.trap("unhandled intrinsic %s", ci.in.Callee)
	}
	return value{}
}

// resolve returns the prepared function a call site names, cached on
// the call site per context (host or kernel).
func (m *machine) resolve(ci *cinstr, name string) *funcInfo {
	ctx := 0
	if m.kernel {
		ctx = 1
	}
	if fi := ci.target[ctx]; fi != nil {
		return fi
	}
	fi := m.prepare(m.lookupFunc(name))
	ci.target[ctx] = fi
	return fi
}

func (m *machine) lookupFunc(name string) *ir.Func {
	// Inside a kernel, device copies of functions take precedence (the
	// __device__ compilation of the same source function).
	if m.kernel && m.prog.Device != nil {
		if f := m.prog.Device.FuncByName(name); f != nil {
			return f
		}
	}
	if f := m.prog.Host.FuncByName(name); f != nil {
		return f
	}
	if m.prog.Device != nil {
		if f := m.prog.Device.FuncByName(name); f != nil {
			return f
		}
	}
	m.trap("call to unknown function %s", name)
	return nil
}

// namedFunc resolves the function-name constant of fork/task/launch.
func (m *machine) namedFunc(ci *cinstr) *funcInfo {
	c, ok := ci.in.Operands[0].(*ir.Const)
	if !ok || c.Str == "" {
		m.trap("fork/launch target must be a function-name constant")
	}
	return m.resolve(ci, c.Str)
}

// callWith runs fi with the given arguments.
func (m *machine) callWith(fi *funcInfo, args ...int64) {
	fr := m.newFrame(fi)
	for _, a := range args {
		fr.args = append(fr.args, iv(a))
	}
	m.call(fr)
}

// ompFork executes the outlined region for each simulated thread's
// chunk of [0, n), sequentially and in thread order — deterministic by
// construction. Outlined signature: (ctx ptr, lo i64, hi i64).
func (m *machine) ompFork(ci *cinstr, ctx, n int64) {
	fn := m.namedFunc(ci)
	t := int64(m.opts.NumThreads)
	chunk := (n + t - 1) / t
	if chunk < 1 {
		chunk = 1
	}
	savedTID := m.ompTID
	for tid := int64(0); tid < t; tid++ {
		lo := tid * chunk
		hi := min64(lo+chunk, n)
		if lo >= n {
			break
		}
		m.ompTID = int(tid)
		m.callWith(fn, ctx, lo, hi)
	}
	m.ompTID = savedTID
}

// drainTasks runs queued tasks FIFO; tasks may enqueue more tasks.
func (m *machine) drainTasks() {
	for len(m.tasks) > 0 {
		t := m.tasks[0]
		m.tasks = m.tasks[1:]
		// Task signature: (ctx ptr, lo i64, hi i64); lo/hi carried in
		// the context by the frontend, passed as zeros here.
		m.callWith(t.fn, t.ctx, 0, 0)
	}
}

// mpiSendrecv performs the synchronous pairwise exchange
// (sendbuf, recvbuf, nbytes, dest, source).
func (m *machine) mpiSendrecv(sendbuf, recvbuf, n, dest, source int64) {
	if n < 0 {
		m.trap("sendrecv with negative length")
	}
	m.checkAddr(sendbuf, n)
	m.checkAddr(recvbuf, n)
	if dest < 0 || dest >= int64(m.box.n) || source < 0 || source >= int64(m.box.n) {
		m.trap("sendrecv peer out of range (dest %d, source %d)", dest, source)
	}
	if int(dest) == m.rank && int(source) == m.rank {
		m.mem.move(recvbuf, sendbuf, n)
		return
	}
	out := make([]byte, n)
	m.mem.read(sendbuf, out)
	m.box.send(m.rank, int(dest), out)
	data := m.box.recv(int(source), m.rank)
	if int64(len(data)) != n {
		m.trap("sendrecv length mismatch: sent %d, expected %d", len(data), n)
	}
	m.mem.write(recvbuf, data)
}

// mpiAllreduce sums a double across ranks (deterministic rank order).
func (m *machine) mpiAllreduce(x float64) float64 {
	if m.box.n == 1 {
		return x
	}
	// Gather to rank 0 via the mailboxes, then broadcast.
	buf := make([]byte, 8)
	if m.rank != 0 {
		putF64(buf, x)
		m.box.send(m.rank, 0, buf)
		res := m.box.recv(0, m.rank)
		return getF64(res)
	}
	sum := x
	for r := 1; r < m.box.n; r++ {
		sum += getF64(m.box.recv(r, 0))
	}
	for r := 1; r < m.box.n; r++ {
		out := make([]byte, 8)
		putF64(out, sum)
		m.box.send(0, r, out)
	}
	return sum
}

// gpuLaunch runs the kernel for tid 0..n-1 on the simulated device.
// Kernel signature: (ctx ptr, tid i64 via __gpu_tid). The kernel's
// cycles accumulate in m.kcycles and reach the per-kernel map when the
// launch ends; a launch over zero threads records the launch only.
func (m *machine) gpuLaunch(ci *cinstr, ctx, n int64) {
	fi := m.namedFunc(ci)
	name := fi.fn.Name
	if m.prog.Device != nil {
		if dev := m.prog.Device.FuncByName(name); dev != nil && dev != fi.fn {
			fi = m.prepare(dev)
		}
	}
	savedKernel, savedTID, savedN, savedCycles := m.kernel, m.gpuTID, m.gpuNtid, m.kcycles
	m.kernel, m.kcycles = true, 0
	m.gpuNtid = n
	m.kernelLaunches[name]++
	for tid := int64(0); tid < n; tid++ {
		m.gpuTID = tid
		m.callWith(fi, ctx)
	}
	if n > 0 {
		m.kernelCycles[name] += m.kcycles
	}
	m.kernel, m.gpuTID, m.gpuNtid, m.kcycles = savedKernel, savedTID, savedN, savedCycles
}

// checksumF64 is an order-sensitive checksum over n doubles: any
// miscompiled store or reordered result changes it.
func (m *machine) checksumF64(addr, n int64) float64 {
	var acc float64
	for i := int64(0); i < n; i++ {
		x := math.Float64frombits(m.load64(addr + 8*i))
		acc = acc*1.0000001 + x*float64(i%7+1)
	}
	return acc
}

func (m *machine) checksumI64(addr, n int64) int64 {
	var acc int64 = 1469598103934665603 // FNV offset basis
	for i := int64(0); i < n; i++ {
		acc = (acc ^ int64(m.load64(addr+8*i))) * 1099511628211
	}
	return acc
}

func putF64(b []byte, f float64) {
	u := math.Float64bits(f)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
}

func getF64(b []byte) float64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u |= uint64(b[i]) << (8 * i)
	}
	return math.Float64frombits(u)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
