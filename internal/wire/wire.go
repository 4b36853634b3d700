// Package wire implements the KaaS network protocol: a simple length-
// prefixed binary framing with a JSON header and an opaque payload body,
// used between clients, the KaaS server, and task runners.
//
// Frame layout:
//
//	magic   [4]byte  "KAAS"
//	version uint8    protocol version (1 or 2)
//	type    uint8    message type
//	hdrLen  uint32   big endian, JSON header length
//	header  []byte   JSON-encoded Header
//	bodyLen uint32   big endian, payload length
//	body    []byte   raw payload (in-band data)
//
// The JSON header carries the control fields of the message (see Header).
// The frame path encodes and decodes it with the hand-written codec in
// header.go, which emits the bytes encoding/json would and falls back to
// encoding/json for whatever it does not recognize.
// Invocation requests may set Header.DeadlineNanos — an absolute wall-clock
// deadline in Unix nanoseconds — so a server can reject work that is
// already expired when it arrives and cancel in-flight kernels whose
// client has given up. A zero DeadlineNanos means the request never
// expires. Unknown header fields are ignored on decode, so adding fields
// is backward compatible within a protocol version.
//
// Version 1 is the legacy one-request-per-connection protocol: each frame
// on a connection belongs to the single outstanding request. Version 2
// adds connection multiplexing: frames carry Header.StreamID, many
// requests share one connection concurrently, replies are matched to
// requests by stream, and MsgCancel aborts one stream without tearing
// down the shared socket. A connection speaks version 2 only after a
// MsgHello/MsgHelloAck negotiation (sent as version-1 frames, so a
// legacy peer answers with a plain error the client can read and report).
//
// Read never trusts a length prefix for allocation. A section's buffer is
// sized by what has arrived: at most allocChunk before the first byte,
// then sectionGrowth times the bytes received, and exactly the claimed
// length on the last step. A peer that delivers k bytes of a section
// therefore makes Read allocate less than
// sectionGrowth/(sectionGrowth-1) * max(allocChunk, sectionGrowth*k)
// bytes for it over all steps, whatever length the prefix claims, while an
// honest body of up to allocChunk lands in one allocation of its own size
// and a 1 MiB body in 1.31x its size.
//
// A body whose length is a power of two from bodyPoolMin to bodyPoolMax
// may instead land in a buffer from the body pool, filled only by Recycle
// with buffers of exactly those sizes. A read that finds one there reads
// straight into it and allocates nothing; a read that finds none follows
// the schedule above, so the arrival bound holds either way. A short read
// puts the pooled buffer back and returns no body. A body of any other
// length is read and dropped as if there were no pool.
//
// The map a frame's Header.Params decodes into comes from a pool too,
// filled only by RecycleParams; the server gives an invoke's map back when
// its stream ends. Header.Values is always a fresh map. Kernel and tenant
// names and map keys decode through a bounded table of interned strings
// (names.go), so a warm invocation's names allocate nothing.
//
// The Message Read returns comes from a pool as well. An owner that knows
// a message's life has ended hands it back with Release, which zeroes the
// struct and leaves what its fields point to alone: a Body, map or string
// copied out beforehand stays valid, and a body goes back only through
// Recycle. Releasing is an optimisation, never an obligation; a message
// nobody releases is garbage-collected. NewMessage takes an empty one
// from the same pool. A race build poisons what the pools take back, so a
// stale reference reads values no frame carries.
//
// Write never copies a body larger than inlineBodyMax: the frame's head
// (everything before the body) is encoded into a pooled buffer and the
// body follows it from the caller's slice in one vectored write (writev on
// a TCP connection, two sequential writes on any other io.Writer). Smaller
// frames are encoded whole into the pooled buffer and leave in a single
// write. The choice depends on len(Body) alone. Write reads msg.Body until
// it returns and keeps no reference to it; the multiplexed transports,
// which batch frames with AppendSplit and WriteSplit, read a queued
// message's Body until its frame has been written.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"sync"
	"unsafe"
)

// Protocol constants.
const (
	// Version is the legacy one-request-per-connection protocol version.
	Version = 1
	// VersionMux is the multiplexed protocol version: frames carry a
	// StreamID and many requests share one connection.
	VersionMux = 2
	// MaxVersion is the highest protocol version this package decodes.
	MaxVersion = VersionMux
	// MaxHeaderLen bounds the JSON header size.
	MaxHeaderLen = 1 << 20
	// MaxBodyLen bounds the payload size (256 MiB).
	MaxBodyLen = 256 << 20
)

var magic = [4]byte{'K', 'A', 'A', 'S'}

// MsgType identifies a protocol message.
type MsgType uint8

// Message types.
const (
	// MsgRegister asks the server to register a kernel.
	MsgRegister MsgType = iota + 1
	// MsgRegistered acknowledges a registration.
	MsgRegistered
	// MsgInvoke requests a kernel invocation.
	MsgInvoke
	// MsgResult returns a successful invocation result.
	MsgResult
	// MsgError reports a failure.
	MsgError
	// MsgList requests the registered kernel names.
	MsgList
	// MsgListResult returns the registered kernel names.
	MsgListResult
	// MsgStats requests server statistics.
	MsgStats
	// MsgStatsResult returns server statistics.
	MsgStatsResult
	// MsgHello offers a protocol upgrade: Header.MuxVersion is the
	// highest version the client speaks. Sent as a version-1 frame so a
	// legacy server answers MsgError ("unexpected message type"), which
	// the client reports as a version mismatch.
	MsgHello
	// MsgHelloAck accepts a protocol upgrade: Header.MuxVersion is the
	// negotiated version and Header.MaxStreams the per-connection
	// concurrent-stream bound the server enforces.
	MsgHelloAck
	// MsgCancel aborts one in-flight stream (Header.StreamID) on a
	// multiplexed connection without closing the shared socket. The
	// cancelled invocation still produces a (best-effort, usually
	// discarded) error reply on its stream.
	MsgCancel
	// MsgControl carries a cluster control-plane request (heartbeat
	// gossip, membership status) as an opaque JSON body. The wire layer
	// does not interpret the payload; servers without a control plane
	// answer MsgError, which a joining node treats as "peer not
	// clustered".
	MsgControl
	// MsgControlAck returns the control-plane reply payload for a
	// MsgControl request.
	MsgControlAck
	// MsgLease asks the server for a window into its pooled tensor arena
	// (Header.LeaseBytes requested capacity) so later invocations on the
	// same connection can pass payloads by handle instead of in the frame
	// body. Sent only on multiplexed (version 2) connections; the reply is
	// matched by Header.StreamID like any other stream.
	MsgLease
	// MsgLeaseAck grants a lease: Header.LeaseID names the window and
	// Header.LeaseBytes its granted capacity. A denial carries
	// Header.Error and Header.Code instead, and the client falls back to
	// in-band transfer without surfacing a failure; a non-retryable code
	// stops it asking again on that connection.
	MsgLeaseAck
	// MsgLeaseRevoke withdraws a granted lease (Header.LeaseID), sent by
	// the server on drain, connection teardown, or a circuit-breaker
	// opening. The client drops the lease from its pool; invocations
	// already in flight against it are answered with a retryable
	// LEASE_REVOKED error and resent in-band.
	MsgLeaseRevoke
)

// String returns the message type name.
func (t MsgType) String() string {
	switch t {
	case MsgRegister:
		return "register"
	case MsgRegistered:
		return "registered"
	case MsgInvoke:
		return "invoke"
	case MsgResult:
		return "result"
	case MsgError:
		return "error"
	case MsgList:
		return "list"
	case MsgListResult:
		return "list-result"
	case MsgStats:
		return "stats"
	case MsgStatsResult:
		return "stats-result"
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "hello-ack"
	case MsgCancel:
		return "cancel"
	case MsgControl:
		return "control"
	case MsgControlAck:
		return "control-ack"
	case MsgLease:
		return "lease"
	case MsgLeaseAck:
		return "lease-ack"
	case MsgLeaseRevoke:
		return "lease-revoke"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// Machine-readable error codes carried by MsgError in Header.Code. They
// classify failures so clients can decide to retry without parsing error
// text (see Retryable). Unrecognized codes must be treated as
// CodeInternal.
const (
	// CodeOverloaded: the server shed the request under admission control
	// (queue bound, in-flight cap, or deadline-aware rejection). Retryable
	// after backoff.
	CodeOverloaded = "OVERLOADED"
	// CodeUnavailable: no device can currently serve the kernel (devices
	// failed, breakers open, or the server is draining), or the arena has
	// no budget for a lease right now. Retryable after backoff, possibly
	// against another replica.
	CodeUnavailable = "UNAVAILABLE"
	// CodeDeadlineExceeded: the request's deadline expired before or
	// during service. Not retryable — the client's budget is gone.
	CodeDeadlineExceeded = "DEADLINE_EXCEEDED"
	// CodeUnknownKernel: the kernel is not registered (or a registration
	// conflict). Not retryable without a registration change.
	CodeUnknownKernel = "UNKNOWN_KERNEL"
	// CodeInternal: any other server-side failure. Not retryable.
	CodeInternal = "INTERNAL"
	// CodeLeaseRevoked: the invocation referenced an arena lease the
	// server has since revoked (drain, breaker-open, or connection
	// cleanup). Retryable — the client resends the same request in-band
	// (or under a fresh lease) without surfacing an error to the caller.
	CodeLeaseRevoked = "LEASE_REVOKED"
)

// Retryable reports whether code means the server rejected the request
// before the kernel ran, so the same request may be retried after backoff
// or moved to another host without executing twice. It is the only such
// table: the header carries the code alone.
func Retryable(code string) bool {
	switch code {
	case CodeOverloaded, CodeUnavailable, CodeLeaseRevoked:
		return true
	}
	return false
}

// Errors returned by frame decoding.
var (
	// ErrBadMagic indicates the stream is not speaking the KaaS protocol.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrBadVersion indicates an unsupported protocol version.
	ErrBadVersion = errors.New("wire: unsupported version")
	// ErrTooLarge indicates a frame section exceeds its limit.
	ErrTooLarge = errors.New("wire: frame too large")
)

// Message is one protocol frame.
type Message struct {
	Type   MsgType
	Header Header
	Body   []byte
	// Version is the protocol version of the frame: set by Read on
	// decode, honored by Write on encode. Zero encodes as Version (1).
	Version uint8
}

// maxPooledBuf caps the size of buffers retained by the frame pools so a
// single huge header cannot pin memory forever.
const maxPooledBuf = 64 << 10

// inlineBodyMax is the largest body that is copied into the frame buffer
// and sent with its head in one plain write; a larger body is written
// from where it lies (see AppendSplit). It is a constant, not an option:
// on loopback TCP the extra iovec costs about as much as copying 2 KiB
// (copying wins by ~5 % at 1 KiB, the two tie from 2 KiB to 16 KiB, the
// vectored write wins from 64 KiB, and end to end 512 B to 16 KiB are
// indistinguishable), and above it every frame that skips the copy also
// stops growing the buffer it would have been copied into.
const inlineBodyMax = 2 << 10

// bufPool recycles frame-encoding scratch buffers across Write calls.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// hdrPool recycles header-decoding buffers across Read calls, which also
// read a frame's preamble and body length through them. decodeHeader
// copies everything it keeps, so the buffer never escapes.
var hdrPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// frameVersion resolves the version byte a message encodes with.
func frameVersion(msg *Message) (uint8, error) {
	v := msg.Version
	if v == 0 {
		v = Version
	}
	if v > MaxVersion {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	return v, nil
}

// appendHead encodes everything of msg's frame that precedes the body:
// preamble, header and body length. The header is encoded in place, after
// a hole for its length that is filled in once it is known.
func appendHead(buf []byte, msg *Message) ([]byte, error) {
	v, err := frameVersion(msg)
	if err != nil {
		return buf, err
	}
	out := append(buf, magic[:]...)
	out = append(out, v, byte(msg.Type), 0, 0, 0, 0)
	hdrAt := len(out)
	out, err = appendHeader(out, &msg.Header)
	if err != nil {
		return buf, fmt.Errorf("wire: encode header: %w", err)
	}
	hdrLen := len(out) - hdrAt
	if hdrLen > MaxHeaderLen {
		return buf, fmt.Errorf("%w: header %d bytes", ErrTooLarge, hdrLen)
	}
	if len(msg.Body) > MaxBodyLen {
		return buf, fmt.Errorf("%w: body %d bytes", ErrTooLarge, len(msg.Body))
	}
	binary.BigEndian.PutUint32(out[hdrAt-4:], uint32(hdrLen))
	return binary.BigEndian.AppendUint32(out, uint32(len(msg.Body))), nil
}

// Append encodes msg onto buf and returns the extended slice: the whole
// frame, body included, whatever its size.
func Append(buf []byte, msg *Message) ([]byte, error) {
	out, err := appendHead(buf, msg)
	if err != nil {
		return buf, err
	}
	return append(out, msg.Body...), nil
}

// AppendSplit encodes msg onto buf like Append, except that a body larger
// than inlineBodyMax is not copied: it is returned as body, and the frame
// is out followed by body (see WriteSplit). body is nil when out holds
// the whole frame. The multiplexed transports use it to coalesce several
// frames into one socket write; a split frame must be the last of its
// batch.
func AppendSplit(buf []byte, msg *Message) (out, body []byte, err error) {
	out, err = appendHead(buf, msg)
	if err != nil {
		return buf, nil, err
	}
	if len(msg.Body) > inlineBodyMax {
		return out, msg.Body, nil
	}
	return append(out, msg.Body...), nil, nil
}

// WriteSplit writes head and then body to w. With a body the two leave in
// one vectored write where w supports it (writev on a *net.TCPConn) and
// in two sequential writes elsewhere; without one it is a plain w.Write.
func WriteSplit(w io.Writer, head, body []byte) error {
	if len(body) == 0 {
		_, err := w.Write(head)
		return err
	}
	bufs := net.Buffers{head, body}
	_, err := bufs.WriteTo(w)
	return err
}

// Write encodes and writes a message to w. The encoding buffer is pooled,
// so steady-state Writes do not allocate, and a body above inlineBodyMax
// is written from msg.Body without a copy.
func Write(w io.Writer, msg *Message) error {
	bp := bufPool.Get().(*[]byte)
	head, body, err := AppendSplit((*bp)[:0], msg)
	if err != nil {
		bufPool.Put(bp)
		return err
	}
	werr := WriteSplit(w, head, body)
	if cap(head) <= maxPooledBuf {
		*bp = head[:0]
		bufPool.Put(bp)
	}
	if werr != nil {
		return fmt.Errorf("wire: write frame: %w", werr)
	}
	return nil
}

// Read decodes one message from r, accepting protocol versions 1 and 2
// and recording which one the frame carried in Message.Version. The
// message comes from the pool Release fills; the lengths before and after
// the header are read through the header's pooled buffer, so Read
// allocates only what the caller keeps.
func Read(r io.Reader) (*Message, error) {
	bp := hdrPool.Get().(*[]byte)
	defer hdrPool.Put(bp)
	pre := (*bp)[:10]
	if _, err := io.ReadFull(r, pre); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read preamble: %w", err)
	}
	if [4]byte(pre[:4]) != magic {
		return nil, ErrBadMagic
	}
	if pre[4] == 0 || pre[4] > MaxVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, pre[4])
	}
	msg := NewMessage()
	msg.Type, msg.Version = MsgType(pre[5]), pre[4]
	hdrLen := binary.BigEndian.Uint32(pre[6:10])
	if hdrLen > MaxHeaderLen {
		return nil, fmt.Errorf("%w: header %d bytes", ErrTooLarge, hdrLen)
	}
	if err := readHeader(r, int(hdrLen), &msg.Header, bp); err != nil {
		return nil, err
	}
	lenBuf := (*bp)[:4]
	if _, err := io.ReadFull(r, lenBuf); err != nil {
		return nil, fmt.Errorf("wire: read body length: %w", err)
	}
	bodyLen := binary.BigEndian.Uint32(lenBuf)
	if bodyLen > MaxBodyLen {
		return nil, fmt.Errorf("%w: body %d bytes", ErrTooLarge, bodyLen)
	}
	if bodyLen > 0 {
		var err error
		msg.Body, err = readSection(r, int(bodyLen))
		if err != nil {
			return nil, fmt.Errorf("wire: read body: %w", err)
		}
	}
	return msg, nil
}

// readHeader reads and decodes the n-byte JSON header into out, which must
// be zero. Small headers pass through bp, the caller's buffer from hdrPool
// (decodeHeader copies what it keeps), which readHeader grows if needed;
// oversized ones fall back to the incremental section reader.
func readHeader(r io.Reader, n int, out *Header, bp *[]byte) error {
	if n > maxPooledBuf {
		hdr, err := readSection(r, n)
		if err != nil {
			return fmt.Errorf("wire: read header: %w", err)
		}
		if err := decodeHeader(hdr, out); err != nil {
			return fmt.Errorf("wire: decode header: %w", err)
		}
		return nil
	}
	buf := *bp
	if cap(buf) < n {
		buf = make([]byte, n)
		*bp = buf
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("wire: read header: %w", err)
	}
	if err := decodeHeader(buf, out); err != nil {
		return fmt.Errorf("wire: decode header: %w", err)
	}
	return nil
}

// msgPool recycles the Message structs Read returns and NewMessage hands
// out, filled by Release.
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// NewMessage returns an empty Message from the pool that Release fills.
// Nothing obliges its owner to release it: an unreleased message is left
// to the GC like any other.
func NewMessage() *Message {
	m := msgPool.Get().(*Message)
	scrubTaken(m)
	return m
}

// Release gives a message Read or NewMessage returned back to the pool,
// zeroing it. The caller must hold no other reference to m once it calls
// Release; what m's fields point to is not touched, so a Body, map or
// string copied out of m beforehand stays valid (a body goes back to its
// own pool through Recycle, under Recycle's rule).
func Release(m *Message) {
	scrubReleased(m)
	msgPool.Put(m)
}

// allocChunk caps how much readSection allocates before any byte of a
// section has arrived.
const allocChunk = 64 << 10

// sectionGrowth is the factor by which readSection's buffer may exceed
// the bytes that have arrived. Four takes a 1 MiB body through 64 KiB,
// 256 KiB and 1 MiB buffers: 1.31x its size allocated, 0.31x re-copied.
const sectionGrowth = 4

// The body pool's size classes are the powers of two from bodyPoolMin
// (4 KiB) to bodyPoolMax (4 MiB); class i holds buffers of exactly
// bodyPoolMin<<i bytes. Below 4 KiB a fresh buffer is as cheap as a pooled
// one; above 4 MiB a body is rare enough that keeping one around for the
// next is not worth the memory.
const (
	bodyPoolShift   = 12
	bodyPoolClasses = 11
	bodyPoolMin     = 1 << bodyPoolShift
	bodyPoolMax     = bodyPoolMin << (bodyPoolClasses - 1)
)

// bodyPools holds recycled body buffers by class, each as a pointer to its
// first byte so that a Put does not allocate. A sync.Pool per class lets
// the GC trim them, so an idle connection pins no memory.
var bodyPools [bodyPoolClasses]sync.Pool

// bodyClass returns the body pool class of size n, or -1 if n is not a
// class size. Only class sizes are pooled, in both directions: a buffer
// goes back to the class a read of its own length looks in, and a body of
// any other length is allocated and dropped as if there were no pool.
func bodyClass(n int) int {
	if n < bodyPoolMin || n > bodyPoolMax || n&(n-1) != 0 {
		return -1
	}
	return bits.Len(uint(n)) - 1 - bodyPoolShift
}

// Recycle gives a body Read returned back to the pool for a later Read of
// the same length to fill. The caller must hold no other reference to b,
// or to any slice sharing its backing array, once it calls Recycle. A b
// whose capacity is not a class size is left to the GC.
func Recycle(b []byte) {
	if i := bodyClass(cap(b)); i >= 0 {
		poisonBody(b[:cap(b)])
		bodyPools[i].Put(unsafe.Pointer(unsafe.SliceData(b)))
	}
}

// maxPooledParams is the most entries a params map may hold and still go
// back to the pool: a cleared map keeps its table, and invocations carry a
// handful of params, so a map a hostile frame grew large is left to the GC.
const maxPooledParams = 32

// paramsPool holds the maps the hand codec decodes Header.Params into,
// filled only by RecycleParams. Values maps are always fresh: a client
// hands them to its caller, who owns them.
var paramsPool = sync.Pool{New: func() any { return make(map[string]float64) }}

// newParams returns an empty map from the params pool.
func newParams() map[string]float64 {
	m := paramsPool.Get().(map[string]float64)
	scrubTakenParams(m)
	return m
}

// RecycleParams gives the Params map of a message Read returned back to the
// pool for a later Read to decode into. The caller must hold no other
// reference to m once it calls RecycleParams. A nil map, or one with more
// than maxPooledParams entries, is left alone.
func RecycleParams(m map[string]float64) {
	if m == nil || len(m) > maxPooledParams {
		return
	}
	scrubRecycledParams(m)
	paramsPool.Put(m)
}

// readSection reads exactly n bytes into a recycled buffer if n is a class
// size and the pool has one, otherwise into a buffer sized by what has
// arrived, not by n (see the package comment for the bound): a frame that
// lies about its length on a truncated stream costs memory in proportion
// to what the stream really delivers.
func readSection(r io.Reader, n int) ([]byte, error) {
	if n <= 0 {
		return nil, nil
	}
	if i := bodyClass(n); i >= 0 {
		// The buffer is exactly n long, so no byte past the body is
		// reachable.
		pool := &bodyPools[i]
		if p, _ := pool.Get().(unsafe.Pointer); p != nil {
			buf := unsafe.Slice((*byte)(p), n)
			if _, err := io.ReadFull(r, buf); err != nil {
				pool.Put(p)
				return nil, err
			}
			return buf, nil
		}
	}
	buf := make([]byte, min(n, allocChunk))
	for have := 0; ; {
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			if errors.Is(err, io.EOF) && have > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		have = len(buf)
		if have == n {
			return buf, nil
		}
		grown := make([]byte, min(n, sectionGrowth*have))
		copy(grown, buf)
		buf = grown
	}
}

// FrameSize returns the on-wire size of a message without writing it, used
// by the network shaper to model transfer time.
func FrameSize(msg *Message) (int64, error) {
	bp := bufPool.Get().(*[]byte)
	hdr, err := appendHeader((*bp)[:0], &msg.Header)
	if cap(hdr) <= maxPooledBuf {
		*bp = hdr[:0]
		bufPool.Put(bp)
	}
	if err != nil {
		return 0, fmt.Errorf("wire: encode header: %w", err)
	}
	return int64(4 + 1 + 1 + 4 + len(hdr) + 4 + len(msg.Body)), nil
}

// CheckEncodable verifies that a client-built message can be encoded
// without paying for a full header encode: the only header fields a
// caller can make unencodable are the float maps, since JSON cannot
// represent non-finite numbers. Transports that share one socket across
// callers use it to fail an unencodable request on its own, before the
// frame reaches the connection's writer (where an encode failure would
// have to kill the shared socket).
func CheckEncodable(msg *Message) error {
	for k, v := range msg.Header.Params {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("wire: encode header: param %q is %v, not representable in JSON", k, v)
		}
	}
	for k, v := range msg.Header.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("wire: encode header: value %q is %v, not representable in JSON", k, v)
		}
	}
	return nil
}
