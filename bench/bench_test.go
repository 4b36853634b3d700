package main

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"testing"
	"time"

	"kaas/internal/wire"
)

// fingerprint digests a trace: kernel, tenant, size, work and due time of
// every op.
func fingerprint(ops []opSpec) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, op := range ops {
		h.Write([]byte(op.kernel))
		h.Write([]byte{op.tenant, op.class})
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(op.work))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(op.due))
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestTraceIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range []string{"payload-inband", "tenants-overload"} {
		w := workloadByName(name)
		a := fingerprint(genTrace(w, 7, 3*time.Second))
		if b := fingerprint(genTrace(w, 7, 3*time.Second)); a != b {
			t.Errorf("%s: same seed, different traces", name)
		}
		if b := fingerprint(genTrace(w, 8, 3*time.Second)); a == b {
			t.Errorf("%s: seeds 7 and 8 give the same trace", name)
		}
	}
	in, oob := workloadByName("payload-inband"), workloadByName("payload-oob")
	if fingerprint(genTrace(in, 7, 0)) != fingerprint(genTrace(oob, 7, 0)) {
		t.Error("payload-inband and payload-oob must replay the same trace")
	}
}

func TestTraceMixIsExact(t *testing.T) {
	var classes [4]int
	for _, op := range genTrace(workloadByName("payload-inband"), 3, 0)[:1000] {
		classes[op.class]++
	}
	if classes != [4]int{0, 500, 400, 100} {
		t.Errorf("size classes of 1000 ops = %v, want 500/400/100", classes[1:])
	}
	var tenants [4]int
	ops := genTrace(workloadByName("tenants-overload"), 3, 4*time.Second)
	for _, op := range ops[:1200] {
		tenants[op.tenant]++
	}
	if tenants != [4]int{0, 1000, 100, 100} {
		t.Errorf("tenants of 1200 ops = %v, want 1000/100/100", tenants[1:])
	}
	for i := 1; i < len(ops); i++ {
		if ops[i].due < ops[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	if last := ops[len(ops)-1].due; last >= 4*time.Second || last < 3900*time.Millisecond {
		t.Errorf("last arrival of a 4 s schedule is due at %v", last)
	}
}

func TestPercentiles(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v", got)
	}
}

func TestWindowedP99IgnoresOneBadWindow(t *testing.T) {
	// Ten sub-windows of 100 samples at 10 us; one stall puts 50 samples
	// of the third at 1000 us. A plain p99 reports the stall; the median
	// of sub-window p99s does not.
	var at, vals []float64
	for w := 0; w < 10; w++ {
		for i := 0; i < 100; i++ {
			at = append(at, float64(w)+float64(i)/100)
			v := 10.0
			if w == 2 && i < 50 {
				v = 1000
			}
			vals = append(vals, v)
		}
	}
	if got := windowedP99(at, vals, 0, 10, 10); got != 10 {
		t.Errorf("windowed p99 = %v, want 10", got)
	}
	if got := percentile(append([]float64{}, vals...), 99); got != 1000 {
		t.Errorf("plain p99 = %v, want 1000", got)
	}
}

func TestLoadMetricsTimeFromDueAndClassifyFailures(t *testing.T) {
	w := workloadByName("tenants-overload")
	ms := int64(time.Millisecond)
	ph := phase{elapsed: time.Second,
		proc: procLog{snaps: []procSnap{{}, {at: time.Second, mallocs: 400, allocBytes: 4000, cpu: 8 * time.Millisecond}}},
		samples: []sample{
			// victim: due at 0, sent 2 ms late, done at 10 ms: latency 10 ms
			{op: 1, start: 0, lag: 2 * ms, end: 10 * ms, serverNs: int64(w.scale) * 4 * ms, tenant: 2, status: statusOK},
			{op: 2, start: 10 * ms, end: 30 * ms, serverNs: int64(w.scale) * 10 * ms, tenant: 3, status: statusOK},
			// victim slower than the 30 ms limit
			{op: 3, start: 20 * ms, end: 60 * ms, serverNs: int64(w.scale) * 30 * ms, tenant: 2, status: statusOK},
			// aggressor: fast, but not in the latency figures; its shed is by design
			{op: 4, start: 0, end: 1 * ms, tenant: aggressor, status: statusOK},
			{op: 5, start: 0, end: 1 * ms, tenant: aggressor, status: statusShed},
			// a shed victim and an untyped error are failures
			{op: 6, start: 0, end: 1 * ms, tenant: 3, status: statusShed},
			{op: 7, start: 0, end: 1 * ms, tenant: aggressor, status: statusFailed},
		}}
	m, res := newValues(), &result{}
	loadMetrics(w, &ph, m, res)
	for name, want := range map[string]float64{
		"latency_p50_us":           20000, // victims' 10, 20 and 40 ms
		"overhead_p50_us":          10000, // wall minus modeled/scale: 6, 10, 10 ms
		"throughput_ops_s":         4,     // goodput counts the aggressor's success
		"allocs_per_op":            100,
		"alloc_bytes_per_op":       1000,
		"proc.cpu_us_per_op":       2000,
		"loadgen.shed":             2,
		"loadgen.failed_untyped":   1,
		"loadgen.failed_share":     2.0 / 7,
		"loadgen.slo_miss_share":   2.0 / 4, // one slow, one shed, of four victim ops
		"loadgen.sched_lag_p99_us": percentile([]float64{2000, 0, 0, 0, 0, 0, 0}, 99),
	} {
		if got := m.v[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if res.Failed != 2 || res.Attempted != 7 {
		t.Errorf("failed %d of %d, want 2 of 7", res.Failed, res.Attempted)
	}
}

func TestPayloadChecksumFollowsTheStamp(t *testing.T) {
	p := payloads{seed: 1}
	for op := uint64(1); op < 4; op++ {
		data, sum := p.request(&opSpec{class: 2}, op)
		if len(data) != classBytes[1] || sum != checksum(data) {
			t.Fatalf("op %d: %d bytes, sum %d, checksum %d", op, len(data), sum, checksum(data))
		}
	}
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8, 200, 100}
	dst := make([]byte, len(src))
	scaleInto(dst, src)
	if dst[8] != 88 || dst[9] != 44 { // 600 and 300 mod 256
		t.Errorf("trailing bytes scale to %v", dst[8:])
	}
}

func TestFrameScannerFindsFramesHoweverChunked(t *testing.T) {
	req := &wire.Message{Type: wire.MsgInvoke, Version: wire.VersionMux,
		Header: wire.Header{Kernel: "probe", Params: map[string]float64{"op": 4711, "work": 0}, StreamID: 9},
		Body:   []byte("payload")}
	empty := &wire.Message{Type: wire.MsgResult, Version: wire.VersionMux, Header: wire.Header{StreamID: 9}}
	var stream []byte
	for _, m := range []*wire.Message{req, empty, req} {
		var err error
		if stream, err = wire.Append(stream, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, chunk := range []int{1, 3, len(stream)} {
		var s frameScanner
		var types []wire.MsgType
		now := int64(0)
		for off := 0; off < len(stream); off += chunk {
			now++
			s.feed(stream[off:min(off+chunk, len(stream))], now, func(typ wire.MsgType, hdr []byte, firstAt, lastAt int64) {
				types = append(types, typ)
				if lastAt != now || firstAt > lastAt {
					t.Errorf("chunk %d: frame spans %d..%d at %d", chunk, firstAt, lastAt, now)
				}
				stream, _ := headerUint(hdr, `"streamID":`)
				if stream != 9 {
					t.Errorf("chunk %d: streamID %d", chunk, stream)
				}
				if op, ok := headerUint(hdr, `"op":`); typ == wire.MsgInvoke && (!ok || op != 4711) {
					t.Errorf("chunk %d: op %d %v", chunk, op, ok)
				}
			})
		}
		if len(types) != 3 || types[0] != wire.MsgInvoke || types[1] != wire.MsgResult || types[2] != wire.MsgInvoke {
			t.Errorf("chunk %d: frames %v", chunk, types)
		}
	}
}

// TestBenchmarkJSONDeclaresWhatRunsReport keeps BENCHMARK.json and the
// program's metric and workload tables equal.
func TestBenchmarkJSONDeclaresWhatRunsReport(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }  `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d declared as %q (%q), runs as %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
	}
	same := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%d %s metrics declared, %d reported", len(declared), kind, len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s metric %d declared as %s [%s], reported as %s [%s]", kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer())
}

func TestSmoke(t *testing.T) {
	if code := run([]string{"-smoke"}); code != 0 {
		t.Fatalf("-smoke exited %d", code)
	}
	if code := run([]string{"-smoke", "--trace", "1", "--workload", "payload-oob"}); code != 0 {
		t.Fatalf("traced -smoke exited %d", code)
	}
}
