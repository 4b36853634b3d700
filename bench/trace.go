package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"sync"
	"time"

	"kaas/internal/wire"
)

// Span kinds. Each names its parent, so the spans of one op (shared ID)
// form a chain client.invoke > server.resident > kernel.*.
type spanKind uint8

const (
	spanClientInvoke spanKind = iota
	spanServerResident
	spanKernelCost
	spanKernelExecute
	numSpanKinds
)

var spanNames = [numSpanKinds]struct{ name, parent string }{
	{"client.invoke", ""},
	{"server.resident", "client.invoke"},
	{"kernel.cost", "server.resident"},
	{"kernel.execute", "server.resident"},
}

type span struct {
	op         uint64
	start, end int64 // ns since recorder epoch
}

// recorder keeps spans in memory, one list per kind, until the run ends.
// Every seam it is fed from belongs to the benchmark: the load generator,
// the listener wrapper and the probe kernel.
type recorder struct {
	epoch time.Time
	kinds [numSpanKinds]struct {
		mu    sync.Mutex
		spans []span
	}
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	for i := range r.kinds {
		// Room for a few seconds of the fastest workload, so the recorder
		// rarely stops to grow a list while it is being timed.
		r.kinds[i].spans = make([]span, 0, 1<<18)
	}
	return r
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(kind spanKind, op uint64, start, end time.Time) {
	r.addNs(kind, op, r.since(start), r.since(end))
}

func (r *recorder) addNs(kind spanKind, op uint64, start, end int64) {
	if op == 0 {
		return // not a benchmark op (e.g. the cold start's sizing call)
	}
	k := &r.kinds[kind]
	k.mu.Lock()
	k.spans = append(k.spans, span{op: op, start: start, end: end})
	k.mu.Unlock()
}

// durations returns, per op, the total duration of the kind's spans.
func (r *recorder) durations(kind spanKind) map[uint64]int64 {
	k := &r.kinds[kind]
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make(map[uint64]int64, len(k.spans))
	for _, s := range k.spans {
		out[s.op] += s.end - s.start
	}
	return out
}

// writeJSON dumps every span as one JSON array.
func (r *recorder) writeJSON(path string) error {
	type jsonSpan struct {
		ID      uint64 `json:"id"`
		Name    string `json:"name"`
		Parent  string `json:"parent,omitempty"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	var all []jsonSpan
	for kind := range r.kinds {
		k := &r.kinds[kind]
		k.mu.Lock()
		for _, s := range k.spans {
			all = append(all, jsonSpan{s.op, spanNames[kind].name, spanNames[kind].parent, s.start, s.end})
		}
		k.mu.Unlock()
	}
	buf, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// tracedListener wraps accepted connections so the server's residence
// time per op is measured from outside it: first byte of the request
// frame read to last byte of the reply frame written.
type tracedListener struct {
	net.Listener
	rec *recorder
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, rec: l.rec, pending: make(map[uint64]pendingOp)}, nil
}

type pendingOp struct {
	op      uint64
	firstAt int64
}

// tracedConn follows the frame boundaries of both directions. A request
// frame's header yields the op (params.op) and the stream it rides; the
// reply frame on the same stream closes the span. Version-1 connections
// carry one request at a time on stream 0.
type tracedConn struct {
	net.Conn
	rec *recorder

	mu      sync.Mutex
	in, out frameScanner
	pending map[uint64]pendingOp
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := c.rec.since(time.Now())
		c.mu.Lock()
		c.in.feed(p[:n], now, func(typ wire.MsgType, hdr []byte, firstAt, _ int64) {
			if typ != wire.MsgInvoke {
				return
			}
			if op, ok := headerUint(hdr, `"op":`); ok {
				stream, _ := headerUint(hdr, `"streamID":`)
				c.pending[stream] = pendingOp{op: op, firstAt: firstAt}
			}
		})
		c.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		now := c.rec.since(time.Now())
		c.mu.Lock()
		c.out.feed(p[:n], now, func(typ wire.MsgType, hdr []byte, _, lastAt int64) {
			if typ != wire.MsgResult && typ != wire.MsgError {
				return
			}
			stream, _ := headerUint(hdr, `"streamID":`)
			if po, ok := c.pending[stream]; ok {
				delete(c.pending, stream)
				c.rec.addNs(spanServerResident, po.op, po.firstAt, lastAt)
			}
		})
		c.mu.Unlock()
	}
	return n, err
}

// headerUint reads the unsigned integer that follows key in a JSON
// header. It is a scan, not a decode: a decode per frame would cost more
// than the span is meant to measure.
func headerUint(hdr []byte, key string) (uint64, bool) {
	i := bytes.Index(hdr, []byte(key))
	if i < 0 {
		return 0, false
	}
	var v uint64
	digits := 0
	for _, b := range hdr[i+len(key):] {
		if b < '0' || b > '9' {
			break
		}
		v = v*10 + uint64(b-'0')
		digits++
	}
	return v, digits > 0
}

// maxScannedHeader bounds the header bytes a scanner keeps; invoke and
// result headers are ~150 bytes, and longer ones (stats documents) carry
// nothing the trace needs.
const maxScannedHeader = 1024

// frameScanner walks a byte stream of wire frames however it is chunked:
// preamble (magic, version, type, header length), header, body length,
// body. It calls done once per frame with the header bytes it kept and
// the times of the chunks holding the frame's first and last byte.
type frameScanner struct {
	stage   int // 0 preamble, 1 header, 2 body length, 3 body
	need    int // bytes left in the stage
	fixed   [10]byte
	nfixed  int
	typ     wire.MsgType
	hdr     []byte
	firstAt int64
}

func (s *frameScanner) feed(p []byte, now int64, done func(typ wire.MsgType, hdr []byte, firstAt, lastAt int64)) {
	for {
		switch s.stage {
		case 0, 2:
			if len(p) == 0 {
				return
			}
			want := 10
			if s.stage == 2 {
				want = 4
			} else if s.nfixed == 0 {
				s.firstAt = now
			}
			n := copy(s.fixed[s.nfixed:want], p)
			s.nfixed += n
			p = p[n:]
			if s.nfixed < want {
				return
			}
			s.nfixed = 0
			if s.stage == 0 {
				s.typ = wire.MsgType(s.fixed[5])
				s.need = int(binary.BigEndian.Uint32(s.fixed[6:10]))
				s.hdr = s.hdr[:0]
			} else {
				s.need = int(binary.BigEndian.Uint32(s.fixed[0:4]))
			}
			s.stage++
		case 1, 3:
			n := min(s.need, len(p))
			if s.stage == 1 {
				s.hdr = append(s.hdr, p[:min(n, maxScannedHeader-len(s.hdr))]...)
			}
			s.need -= n
			p = p[n:]
			if s.need > 0 {
				return
			}
			if s.stage == 3 {
				done(s.typ, s.hdr, s.firstAt, now)
			}
			s.stage = (s.stage + 1) % 4
		}
	}
}
