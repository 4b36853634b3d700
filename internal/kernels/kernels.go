// Package kernels implements the accelerator kernels evaluated in the
// paper: matrix multiplication, soft dynamic time warping, a genetic
// algorithm, graph-neural-network training, Monte Carlo integration, a
// quantum-circuit simulator, histogram computation, bitmap conversion, 2D
// convolution, ResNet-style inference, image preprocessing, and the VQE
// estimator.
//
// Every kernel does two things:
//
//   - Execute performs the real computation in Go and returns verifiable
//     results. For task granularities whose full-size computation is
//     infeasible on a test machine (a 20,000² matrix multiply is 16
//     TFLOPs), Execute computes a capped-size instance of the same
//     problem — the arithmetic is real, only the problem dimension is
//     clamped — and reports the effective size it used.
//
//   - Cost reports the modeled device work of the *requested* size (FLOPs
//     or an equivalent work metric, plus transfer bytes and memory
//     footprint). The accelerator simulators charge modeled time from
//     this, so experiment timings reflect the paper's full task sizes.
package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"kaas/internal/accel"
)

// Params carries named numeric invocation parameters (task granularity,
// seeds, iteration counts).
type Params map[string]float64

// Int reads an integer parameter with a default.
func (p Params) Int(key string, def int) int {
	if v, ok := p[key]; ok {
		return int(v)
	}
	return def
}

// Float reads a float parameter with a default.
func (p Params) Float(key string, def float64) float64 {
	if v, ok := p[key]; ok {
		return v
	}
	return def
}

// Clone returns a copy of the params.
func (p Params) Clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Request is one kernel invocation: parameters plus an optional raw data
// payload (delivered in-band over the wire or out-of-band via shared
// memory).
type Request struct {
	// Params is valid until Execute returns: the server decodes a wire
	// request's params into a map it reuses for later calls. A kernel
	// that needs them afterwards copies them (Params.Clone). It may
	// return Params itself as Response.Values; the server then keeps the
	// map until the reply is written.
	Params Params
	// Data is valid until Execute returns, on both data paths: the server
	// reuses an in-band body's buffer and a leased arena window for later
	// calls. A kernel that needs the bytes afterwards copies them. It may
	// return Data, or a slice of it, as Response.Data; the server then
	// keeps the buffer until the reply is written.
	Data []byte
	// Tenant names the invoking tenant for fair queueing. Empty means
	// the caller did not identify itself; the server normalizes that to
	// its default tenant.
	Tenant string
}

// Response is a kernel result: named scalar outputs plus an optional raw
// payload.
type Response struct {
	Values map[string]float64
	Data   []byte
}

// Cost is the modeled device cost of one invocation.
type Cost struct {
	// Work is the device work in the device's work units (FLOPs for
	// dense kernels, amplitude operations for quantum simulation).
	Work float64
	// SetupTime is one-time per-runner setup beyond runtime init (model
	// weight loading, circuit transpilation), as a modeled duration. A
	// warm runner has already paid it; a fresh process pays it every
	// task.
	SetupTime time.Duration
	// BytesIn and BytesOut are host-to-device and device-to-host
	// transfer sizes.
	BytesIn, BytesOut int64
	// DeviceMemory is the resident device allocation during execution.
	DeviceMemory int64
}

// Kernel is a registrable accelerator kernel.
type Kernel interface {
	// Name is the registry key, e.g. "matmul".
	Name() string
	// Kind is the accelerator kind the kernel targets.
	Kind() accel.Kind
	// Cost models the device cost of a request at its full size. It
	// must not modify req: the server prices every cold start's setup
	// with one shared, read-only request.
	Cost(req *Request) (Cost, error)
	// Execute runs the computation (possibly size-capped) on the host.
	// req.Params and req.Data are valid only until it returns (see
	// Request).
	Execute(req *Request) (*Response, error)
}

// Suite returns one instance of every kernel in the paper's evaluation,
// targeting its default device kind.
func Suite() []Kernel {
	return []Kernel{
		NewMatMul(accel.GPU),
		NewSoftDTW(),
		NewGeneticAlgorithm(),
		NewGNNTraining(),
		NewMonteCarlo(),
		NewQuantumSim(),
		NewHistogram(),
		NewBitmapConversion(),
		NewConv2D(),
		NewResNetInference(),
		NewImagePreprocess(),
		NewVQEKernel(),
	}
}

// ByName returns the kernel with the given name from the default suite.
func ByName(name string) (Kernel, error) {
	for _, k := range Suite() {
		if k.Name() == name {
			return k, nil
		}
	}
	return nil, fmt.Errorf("kernels: unknown kernel %q", name)
}

// Retarget returns a kernel identical to k but targeting a different
// device kind — the paper's portability story: the same kernel code can
// be deployed on whatever hardware serves it best (a CPU fallback, a
// newer GPU generation) without changing the application.
func Retarget(k Kernel, kind accel.Kind) Kernel {
	return &retargeted{Kernel: k, kind: kind}
}

type retargeted struct {
	Kernel
	kind accel.Kind
}

// Kind implements Kernel.
func (r *retargeted) Kind() accel.Kind { return r.kind }

// Float64sToBytes encodes a float64 slice little-endian for data payloads.
func Float64sToBytes(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// BytesToFloat64s decodes a little-endian float64 payload.
func BytesToFloat64s(data []byte) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("kernels: payload length %d not a multiple of 8", len(data))
	}
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out, nil
}

// capDim clamps a requested dimension to the execution cap, returning the
// effective dimension used for real computation.
func capDim(n, cap int) int {
	if n > cap {
		return cap
	}
	if n < 1 {
		return 1
	}
	return n
}
