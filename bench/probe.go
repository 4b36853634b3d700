package main

import (
	"encoding/binary"
	"time"

	"kaas/internal/accel"
	"kaas/internal/kernels"
)

// nulldev is a device whose model charges nothing: no init, launch or
// copy cost, and rates high enough that any work or transfer rounds to
// zero modeled time. On it, wall time is middleware time.
var nulldev = accel.Profile{
	Name:          "nulldev",
	Kind:          accel.GPU,
	ComputeRate:   1e30,
	CopyBandwidth: 1e30,
	Slots:         16,
	MemoryBytes:   16 << 30,
}

// sumMask keeps checksums below 2^52 so they survive the float64 the
// protocol carries scalar results in.
const sumMask = 1<<52 - 1

// checksum is the wrapping sum of the payload's little-endian 64-bit
// words (trailing bytes count as one byte each).
func checksum(data []byte) uint64 {
	var s uint64
	for len(data) >= 8 {
		s += binary.LittleEndian.Uint64(data)
		data = data[8:]
	}
	for _, b := range data {
		s += uint64(b)
	}
	return s
}

// scaleWord is the factor the probe multiplies every payload word by.
const scaleWord = 3

// scaleInto writes src scaled element-wise into dst (same length): whole
// 64-bit words are multiplied by scaleWord with wrap-around, trailing
// bytes likewise as bytes.
func scaleInto(dst, src []byte) {
	i := 0
	for ; i+8 <= len(src); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(src[i:])*scaleWord)
	}
	for ; i < len(src); i++ {
		dst[i] = src[i] * scaleWord
	}
}

// probe is the benchmark's kernel. Its modeled cost comes from the
// request's params (work, in, out, mem), so one implementation serves the
// zero-cost and the device-bound workloads; its real computation is a
// checksum and an element-wise scale of the payload, cheap enough that
// the middleware stays the subject (kernels.* guards that). The op param
// names the invocation so spans recorded here join the client's.
type probe struct {
	name string
	rec  *recorder // nil unless tracing
}

func (p *probe) Name() string     { return p.name }
func (p *probe) Kind() accel.Kind { return accel.GPU }

func (p *probe) Cost(req *kernels.Request) (kernels.Cost, error) {
	var t0 time.Time
	if p.rec != nil {
		t0 = time.Now()
	}
	c := kernels.Cost{
		Work:         req.Params["work"],
		BytesIn:      int64(req.Params["in"]),
		BytesOut:     int64(req.Params["out"]),
		DeviceMemory: int64(req.Params["mem"]),
	}
	if p.rec != nil {
		p.rec.add(spanKernelCost, uint64(req.Params["op"]), t0, time.Now())
	}
	return c, nil
}

func (p *probe) Execute(req *kernels.Request) (*kernels.Response, error) {
	var t0 time.Time
	if p.rec != nil {
		t0 = time.Now()
	}
	op := uint64(req.Params["op"])
	resp := &kernels.Response{
		Values: map[string]float64{"sum": float64(expectedSum(checksum(req.Data), op))},
	}
	if len(req.Data) > 0 {
		resp.Data = make([]byte, len(req.Data))
		scaleInto(resp.Data, req.Data)
	}
	if p.rec != nil {
		p.rec.add(spanKernelExecute, op, t0, time.Now())
	}
	return resp, nil
}

// expectedSum folds the op number into a payload checksum, so even a
// header-only reply proves it answers the request it is matched to.
func expectedSum(payloadSum, op uint64) uint64 { return (payloadSum + op) & sumMask }
