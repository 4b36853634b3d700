package wire

import (
	"sync"
	"sync/atomic"
)

// The name table interns the strings headers repeat from frame to frame:
// kernel and tenant names and the keys of the params and values maps. A
// warm invocation then decodes its names without allocating, where each
// used to cost a fresh string per frame.
//
// The table is bounded and never evicts. It holds at most maxNames names
// of at most maxNameLen bytes, about 64 KiB however hostile the peers,
// and a name that is longer, escaped, or arrives once the table is full
// is decoded into a fresh string, as before the table existed. Since an
// entry is never replaced or dropped, nothing can go stale and there is no
// policy to tune: a decode returns the same string with or without the
// table. Both bounds are constants.
//
// Reads take no lock: the table is an immutable map behind an atomic
// pointer, and an insert copies it under a mutex and swaps the pointer.
// Inserts stop once the table is full, so at most maxNames copies are ever
// made.
const (
	maxNames   = 1024
	maxNameLen = 64
)

var (
	names   atomic.Pointer[map[string]string]
	namesMu sync.Mutex
)

// intern returns raw as a string, shared with earlier decodes of the same
// name when the table holds it.
func intern(raw []byte) string {
	if len(raw) > maxNameLen {
		return string(raw)
	}
	var n int
	if m := names.Load(); m != nil {
		if s, ok := (*m)[string(raw)]; ok {
			return s
		}
		n = len(*m)
	}
	if n >= maxNames {
		return string(raw)
	}
	return addName(string(raw))
}

// addName inserts s into the table unless it is full, and returns the
// table's copy of s.
func addName(s string) string {
	namesMu.Lock()
	defer namesMu.Unlock()
	var old map[string]string
	if m := names.Load(); m != nil {
		old = *m
	}
	if t, ok := old[s]; ok {
		return t
	}
	if len(old) >= maxNames {
		return s
	}
	m := make(map[string]string, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[s] = s
	names.Store(&m)
	return s
}
