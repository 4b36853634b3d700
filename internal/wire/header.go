package wire

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// Header carries the JSON-encoded control fields of a message.
type Header struct {
	// Kernel is the kernel name for register/invoke.
	Kernel string `json:"kernel,omitempty"`
	// Tenant identifies the invoking tenant for fair queueing on
	// MsgInvoke. Legacy (pre-tenant) peers omit it; servers map the empty
	// string to the deterministic "default" tenant so mixed-version
	// clusters do not split accounting between "" and "default".
	Tenant string `json:"tenant,omitempty"`
	// Params are the invocation parameters. Read decodes them into a map
	// from the params pool, which RecycleParams refills.
	Params map[string]float64 `json:"params,omitempty"`
	// Values are the scalar results of an invocation, always decoded
	// into a fresh map.
	Values map[string]float64 `json:"values,omitempty"`
	// Error is the failure description on MsgError.
	Error string `json:"error,omitempty"`
	// Code is the machine-readable classification of the failure on
	// MsgError and on a denying MsgLeaseAck (one of the Code* constants);
	// whether the request may be retried is Retryable(Code). Empty on
	// frames from servers predating structured errors; clients treat that
	// as CodeInternal.
	Code string `json:"code,omitempty"`
	// Names lists kernel names in MsgListResult.
	Names []string `json:"names,omitempty"`
	// Stats is an opaque JSON stats document in MsgStatsResult.
	Stats json.RawMessage `json:"stats,omitempty"`
	// ColdStart reports whether the invocation started a new runner.
	ColdStart bool `json:"coldStart,omitempty"`
	// CachedColdStart reports whether a cold start skipped JIT
	// compilation because the compiled artifact was already cached.
	// Only meaningful when ColdStart is true.
	CachedColdStart bool `json:"cachedColdStart,omitempty"`
	// InvocationID is the server-assigned invocation identifier returned
	// on MsgResult. It joins the client-observed result with the server's
	// structured log lines and metrics for that invocation.
	InvocationID string `json:"invocationID,omitempty"`
	// DurationNanos is the server-side modeled invocation time.
	DurationNanos int64 `json:"durationNanos,omitempty"`
	// DeadlineNanos is the absolute wall-clock deadline of the request in
	// Unix nanoseconds. Servers reject frames whose deadline has already
	// passed and cancel the invocation when it expires mid-flight. Zero
	// means no deadline.
	DeadlineNanos int64 `json:"deadlineNanos,omitempty"`
	// StreamID identifies the request/reply stream on a multiplexed
	// (version 2) connection. The client assigns it on requests; the
	// server echoes it on the matching reply and on MsgCancel it names
	// the stream to abort. Zero on version-1 connections.
	StreamID uint64 `json:"streamID,omitempty"`
	// MuxVersion carries the offered (MsgHello) or negotiated
	// (MsgHelloAck) protocol version during the upgrade handshake.
	MuxVersion uint8 `json:"muxVersion,omitempty"`
	// MaxStreams advertises, on MsgHelloAck, how many concurrent streams
	// the server will serve per connection before applying backpressure.
	MaxStreams int `json:"maxStreams,omitempty"`
	// LeaseID names an arena lease: the granted window on MsgLeaseAck,
	// the revoked window on MsgLeaseRevoke, and — on MsgInvoke — the
	// window holding the input payload (out-of-band transfer over the
	// mux; zero means the payload is in the body).
	LeaseID uint64 `json:"leaseID,omitempty"`
	// LeaseBytes is the requested (MsgLease) or granted (MsgLeaseAck)
	// capacity of an arena lease in bytes.
	LeaseBytes int64 `json:"leaseBytes,omitempty"`
	// LeaseLen is the length of the input payload within the leased
	// window on a MsgInvoke that carries LeaseID.
	LeaseLen int64 `json:"leaseLen,omitempty"`
	// LeaseResultLen, on MsgResult, is the length of the output payload
	// the server wrote back into the invocation's leased window. Zero
	// means the result (if any) is in the frame body.
	LeaseResultLen int64 `json:"leaseResultLen,omitempty"`
}

// The header codec. A frame's header is JSON, and always was; what this
// file replaces is how it is produced and consumed. appendHeader and
// decodeHeader handle the headers this package itself emits without
// reflection, and hand everything else to encoding/json:
//
//   - appendHeader writes exactly the bytes json.Marshal(h) would (fields
//     in struct order, omitempty, map keys sorted, the same number and
//     string formatting, HTML escaping included) straight into the
//     caller's buffer. Headers carrying Names or Stats, and headers
//     json.Marshal rejects (a non-finite float), go through json.Marshal.
//   - decodeHeader scans the grammar appendHeader emits: one flat object,
//     no whitespace, each known key at most once with a value of its
//     field's type, strings of printable ASCII with two-character escapes
//     only. On anything else it declines and json.Unmarshal decodes the
//     header, so what a frame decodes to (or fails with) never depends on
//     which decoder ran.
//
// Which path runs depends only on the header's contents. encoding/json is
// the decoder of last resort and the oracle both halves are fuzzed
// against (FuzzHeaderEncode, FuzzHeaderDecode).

// appendHeader appends h's JSON encoding to b.
func appendHeader(b []byte, h *Header) ([]byte, error) {
	if out, ok := appendHeaderFields(b, h); ok {
		return out, nil
	}
	hdr, err := json.Marshal(h)
	if err != nil {
		return b, err
	}
	return append(b, hdr...), nil
}

// appendHeaderFields encodes h unless it holds what is left to
// json.Marshal: Names, Stats, or a float JSON cannot represent. Each
// non-empty field is written as `,"name":value`; the first comma then
// becomes the opening brace.
func appendHeaderFields(b []byte, h *Header) ([]byte, bool) {
	if len(h.Names) > 0 || len(h.Stats) > 0 {
		return b, false
	}
	at := len(b)
	b = appendStringField(b, `,"kernel":`, h.Kernel)
	b = appendStringField(b, `,"tenant":`, h.Tenant)
	b, ok := appendFloatMapField(b, `,"params":`, h.Params)
	if ok {
		b, ok = appendFloatMapField(b, `,"values":`, h.Values)
	}
	if !ok {
		return b[:at], false
	}
	b = appendStringField(b, `,"error":`, h.Error)
	b = appendStringField(b, `,"code":`, h.Code)
	b = appendBoolField(b, `,"coldStart":`, h.ColdStart)
	b = appendBoolField(b, `,"cachedColdStart":`, h.CachedColdStart)
	b = appendStringField(b, `,"invocationID":`, h.InvocationID)
	b = appendIntField(b, `,"durationNanos":`, h.DurationNanos)
	b = appendIntField(b, `,"deadlineNanos":`, h.DeadlineNanos)
	b = appendUintField(b, `,"streamID":`, h.StreamID)
	b = appendUintField(b, `,"muxVersion":`, uint64(h.MuxVersion))
	b = appendIntField(b, `,"maxStreams":`, int64(h.MaxStreams))
	b = appendUintField(b, `,"leaseID":`, h.LeaseID)
	b = appendIntField(b, `,"leaseBytes":`, h.LeaseBytes)
	b = appendIntField(b, `,"leaseLen":`, h.LeaseLen)
	b = appendIntField(b, `,"leaseResultLen":`, h.LeaseResultLen)
	if len(b) == at {
		return append(b, '{', '}'), true
	}
	b[at] = '{'
	return append(b, '}'), true
}

func appendStringField(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, key...), s)
}

func appendBoolField(b []byte, key string, v bool) []byte {
	if !v {
		return b
	}
	return append(append(b, key...), "true"...)
}

func appendIntField(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

func appendUintField(b []byte, key string, v uint64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendUint(append(b, key...), v, 10)
}

// appendFloatMapField writes m with its keys in byte order, as
// encoding/json does. The sort scratch is an array so that it stays on
// the stack for the maps invocations carry.
func appendFloatMapField(b []byte, key string, m map[string]float64) ([]byte, bool) {
	if len(m) == 0 {
		return b, true
	}
	var scratch [8]string
	keys := scratch[:0]
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return b, false
		}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, key...)
	for i, k := range keys {
		sep := byte(',')
		if i == 0 {
			sep = '{'
		}
		b = appendString(append(b, sep), k)
		b = appendFloat(append(b, ':'), m[k])
	}
	return append(b, '}'), true
}

// appendFloat formats f as encoding/json does: the shortest decimal that
// round-trips, exponent form outside [1e-6, 1e21), and a one-digit
// negative exponent written without its zero (1e-7, not 1e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on:
// two-character escapes for quote, backslash, \b, \f, \n, \r and \t;
// \u00XX for the other control characters and for <, > and &; U+2028
// and U+2029 as \u2028 and \u2029; \ufffd for each byte of invalid UTF-8.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		size := 1
		if c >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			if r != '\u2028' && r != '\u2029' && !(r == utf8.RuneError && size == 1) {
				i += size
				continue
			}
			b = append(b, s[start:i]...)
			if size == 1 {
				b = append(b, `\ufffd`...)
			} else {
				b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			}
		} else {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// decodeHeader decodes the JSON header hdr into out, which must be zero.
// It keeps no reference to hdr. Params comes from the params pool when the
// hand codec decodes it (see RecycleParams), and goes back there when the
// hand codec declines the header.
func decodeHeader(hdr []byte, out *Header) error {
	if scanHeader(hdr, out) {
		return nil
	}
	RecycleParams(out.Params)
	*out = Header{}
	return json.Unmarshal(hdr, out)
}

// scanHeader decodes hdr into h if hdr is in the grammar appendHeaderFields
// emits, and reports whether it was; if not, h may be partly filled. Keys
// may come in any order, but none twice (encoding/json would merge them).
func scanHeader(hdr []byte, h *Header) bool {
	if len(hdr) < 2 || hdr[0] != '{' {
		return false
	}
	if hdr[1] == '}' {
		return len(hdr) == 2
	}
	var seen uint32
	for i := 1; ; {
		key, next, escaped, ok := scanString(hdr, i)
		if !ok || escaped || next >= len(hdr) || hdr[next] != ':' {
			return false
		}
		i = next + 1
		var bit uint32
		switch string(key) {
		case "kernel":
			bit = 1 << 0
			h.Kernel, i, ok = readName(hdr, i)
		case "tenant":
			bit = 1 << 1
			h.Tenant, i, ok = readName(hdr, i)
		case "params":
			bit = 1 << 2
			h.Params, i, ok = readFloatMap(hdr, i, newParams())
		case "values":
			bit = 1 << 3
			h.Values, i, ok = readFloatMap(hdr, i, make(map[string]float64))
		case "error":
			bit = 1 << 4
			h.Error, i, ok = readString(hdr, i)
		case "code":
			bit = 1 << 5
			h.Code, i, ok = readString(hdr, i)
		case "coldStart":
			bit = 1 << 6
			h.ColdStart, i, ok = readBool(hdr, i)
		case "cachedColdStart":
			bit = 1 << 7
			h.CachedColdStart, i, ok = readBool(hdr, i)
		case "invocationID":
			bit = 1 << 8
			h.InvocationID, i, ok = readString(hdr, i)
		case "durationNanos":
			bit = 1 << 9
			h.DurationNanos, i, ok = readInt(hdr, i)
		case "deadlineNanos":
			bit = 1 << 10
			h.DeadlineNanos, i, ok = readInt(hdr, i)
		case "streamID":
			bit = 1 << 11
			h.StreamID, i, ok = readUint(hdr, i, math.MaxUint64)
		case "muxVersion":
			bit = 1 << 12
			var v uint64
			v, i, ok = readUint(hdr, i, math.MaxUint8)
			h.MuxVersion = uint8(v)
		case "maxStreams":
			bit = 1 << 13
			var v int64
			v, i, ok = readInt(hdr, i)
			h.MaxStreams = int(v)
			ok = ok && int64(h.MaxStreams) == v
		case "leaseID":
			bit = 1 << 14
			h.LeaseID, i, ok = readUint(hdr, i, math.MaxUint64)
		case "leaseBytes":
			bit = 1 << 15
			h.LeaseBytes, i, ok = readInt(hdr, i)
		case "leaseLen":
			bit = 1 << 16
			h.LeaseLen, i, ok = readInt(hdr, i)
		case "leaseResultLen":
			bit = 1 << 17
			h.LeaseResultLen, i, ok = readInt(hdr, i)
		default:
			return false
		}
		if !ok || seen&bit != 0 || i >= len(hdr) {
			return false
		}
		seen |= bit
		switch hdr[i] {
		case ',':
			i++
		case '}':
			return i+1 == len(hdr)
		default:
			return false
		}
	}
}

// scanString finds the string literal that opens at b[i]. raw is what
// lies between its quotes; escaped reports whether raw holds escapes.
func scanString(b []byte, i int) (raw []byte, next int, escaped, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, escaped, true
		case c == '\\':
			j++
			if j >= len(b) || unescape(b[j]) == 0 {
				return nil, i, false, false
			}
			escaped = true
		case c < ' ' || c >= utf8.RuneSelf:
			return nil, i, false, false
		}
	}
	return nil, i, false, false
}

// unescape maps the second byte of a two-character escape to the byte it
// stands for, or to zero if there is no such escape.
func unescape(c byte) byte {
	switch c {
	case '"', '\\', '/':
		return c
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'n':
		return '\n'
	case 'r':
		return '\r'
	case 't':
		return '\t'
	}
	return 0
}

func readString(b []byte, i int) (string, int, bool) {
	raw, next, escaped, ok := scanString(b, i)
	if !escaped {
		return string(raw), next, ok
	}
	return unescapeString(raw), next, ok
}

// readName reads a string that names something headers repeat from frame
// to frame (a kernel, a tenant, a float-map key) through the name table.
func readName(b []byte, i int) (string, int, bool) {
	raw, next, escaped, ok := scanString(b, i)
	if !escaped {
		return intern(raw), next, ok
	}
	return unescapeString(raw), next, ok
}

// unescapeString resolves the two-character escapes scanString accepted.
func unescapeString(raw []byte) string {
	s := make([]byte, 0, len(raw))
	for j := 0; j < len(raw); j++ {
		c := raw[j]
		if c == '\\' {
			j++
			c = unescape(raw[j])
		}
		s = append(s, c)
	}
	return string(s)
}

func readBool(b []byte, i int) (bool, int, bool) {
	switch rest := b[i:]; {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		return true, i + 4, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		return false, i + 5, true
	}
	return false, i, false
}

// numberEnd returns the end of the JSON number that starts at b[i], and
// whether it is written as an integer (no fraction, no exponent). end is
// i when no number starts there.
func numberEnd(b []byte, i int) (end int, integer bool) {
	digits := func(j int) int {
		for j < len(b) && '0' <= b[j] && b[j] <= '9' {
			j++
		}
		return j
	}
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case digits(j) > j:
		j = digits(j)
	default:
		return i, false
	}
	integer = true
	if j < len(b) && b[j] == '.' {
		if digits(j+1) == j+1 {
			return i, false
		}
		j, integer = digits(j+1), false
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		k := j + 1
		if k < len(b) && (b[k] == '+' || b[k] == '-') {
			k++
		}
		if digits(k) == k {
			return i, false
		}
		j, integer = digits(k), false
	}
	return j, integer
}

// readUint reads a non-negative integer no larger than max.
func readUint(b []byte, i int, max uint64) (v uint64, next int, ok bool) {
	end, integer := numberEnd(b, i)
	if !integer || b[i] == '-' {
		return 0, i, false
	}
	for _, c := range b[i:end] {
		d := uint64(c - '0')
		if v > (max-d)/10 {
			return 0, i, false
		}
		v = v*10 + d
	}
	return v, end, true
}

func readInt(b []byte, i int) (int64, int, bool) {
	if i < len(b) && b[i] == '-' {
		v, next, ok := readUint(b, i+1, 1<<63)
		return -int64(v), next, ok
	}
	v, next, ok := readUint(b, i, math.MaxInt64)
	return int64(v), next, ok
}

// readFloat converts with the call encoding/json makes, so that every
// accepted literal yields the same bits; a literal out of float64's range
// is declined.
func readFloat(b []byte, i int) (float64, int, bool) {
	end, _ := numberEnd(b, i)
	if end == i {
		return 0, i, false
	}
	f, err := strconv.ParseFloat(string(b[i:end]), 64)
	return f, end, err == nil
}

// readFloatMap reads a flat object of numbers into m, which must be
// empty. A repeated key keeps its last value, as in encoding/json. It
// returns m even when b holds no such object; decodeHeader then recycles
// a params map along with the rest of the header it declines.
func readFloatMap(b []byte, i int, m map[string]float64) (map[string]float64, int, bool) {
	if i >= len(b) || b[i] != '{' {
		return m, i, false
	}
	if i+1 < len(b) && b[i+1] == '}' {
		return m, i + 2, true
	}
	for {
		k, next, ok := readName(b, i+1)
		if !ok || next >= len(b) || b[next] != ':' {
			return m, i, false
		}
		v, next, ok := readFloat(b, next+1)
		if !ok || next >= len(b) {
			return m, i, false
		}
		m[k] = v
		switch b[next] {
		case ',':
			i = next
		case '}':
			return m, next + 1, true
		default:
			return m, i, false
		}
	}
}
