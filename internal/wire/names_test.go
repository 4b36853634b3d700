package wire

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// hostileNameHeaders returns headers whose kernel, tenant and params keys
// are more distinct names than the name table holds, names longer than
// it interns and names only an escape can carry.
func hostileNameHeaders() [][]byte {
	var hdrs [][]byte
	add := func(kernel, tenant, key string) {
		h := Header{Kernel: kernel, Tenant: tenant, Params: map[string]float64{key: 1, "op": 2}}
		b, err := json.Marshal(&h)
		if err != nil {
			panic(err)
		}
		hdrs = append(hdrs, b)
	}
	for i := 0; i < maxNames+200; i++ {
		add(fmt.Sprintf("kernel-%d", i), fmt.Sprintf("tenant-%d", i%7), fmt.Sprintf("key-%d", i))
	}
	for n := maxNameLen - 1; n <= maxNameLen+2; n++ {
		add(strings.Repeat("k", n), strings.Repeat("t", n), strings.Repeat("p", n))
	}
	add(`quote"d`, "tab\tbed", `back\slash`)
	add("new\nline", `slash/`, "<html>")
	add("é-not-ascii", " ", "ctl\x01")
	return hdrs
}

// TestNameTableBounded: decoding far more distinct names than the table
// holds, and names it must not intern, from several goroutines at once
// still decodes every header to what encoding/json decodes, and the
// table never grows past its bound. Run under -race it also checks that
// the lock-free reads and the copy-on-write inserts do not race.
func TestNameTableBounded(t *testing.T) {
	saved := names.Load()
	names.Store(nil)
	t.Cleanup(func() { names.Store(saved) })

	// Before the table fills, a repeated name is decoded to one string.
	a, b := intern([]byte("probe")), intern([]byte("probe"))
	if a != "probe" || unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatalf("intern(probe) twice = %q at %p, %q at %p; want one string", a, unsafe.StringData(a), b, unsafe.StringData(b))
	}

	hdrs := hostileNameHeaders()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the headers from its own offset, so
			// inserts and reads of the same names interleave.
			for i := range hdrs {
				hdr := hdrs[(i+g*len(hdrs)/4)%len(hdrs)]
				var got, want Header
				if err := decodeHeader(hdr, &got); err != nil {
					t.Errorf("decodeHeader(%s): %v", hdr, err)
					return
				}
				if err := json.Unmarshal(hdr, &want); err != nil {
					t.Errorf("json.Unmarshal(%s): %v", hdr, err)
					return
				}
				if !headersEqual(&got, &want) {
					t.Errorf("header %s\ndecodeHeader   %+v\njson.Unmarshal %+v", hdr, got, want)
					return
				}
				RecycleParams(got.Params)
			}
		}(g)
	}
	wg.Wait()

	table := *names.Load()
	if len(table) != maxNames {
		t.Errorf("name table holds %d names after more than %d distinct ones, want %d", len(table), maxNames, maxNames)
	}
	for name := range table {
		if len(name) > maxNameLen {
			t.Errorf("name table holds a %d-byte name, bound is %d", len(name), maxNameLen)
		}
		if strings.ContainsAny(name, "\"\\\t\n/") {
			t.Errorf("name table holds %q, which only an escape can carry", name)
		}
	}
	if _, ok := table["probe"]; !ok {
		t.Error("a full table dropped a name: it must never evict")
	}
	// A full table still decodes a name it has never seen.
	var h Header
	if err := decodeHeader([]byte(`{"kernel":"never-seen"}`), &h); err != nil || h.Kernel != "never-seen" {
		t.Errorf("decode after the table filled: kernel %q, err %v", h.Kernel, err)
	}
	if n := len(*names.Load()); n != maxNames {
		t.Errorf("name table holds %d names after the flood, want it full at %d", n, maxNames)
	}
}
