package cplane_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"kaas"
	"kaas/internal/client"
	"kaas/internal/cplane"
	"kaas/internal/kernels"
	"kaas/internal/vclock"
	"kaas/internal/wire"
)

// fakePeer is a minimal wire endpoint that answers MsgControl frames
// with its own gossip — or, while muted, with an error — so heartbeat
// outcomes can be scripted without a real server. While shedding it
// gossips that it serves the mci kernel and answers every invocation
// with a retryable OVERLOADED error.
type fakePeer struct {
	ln       net.Listener
	name     string
	muted    atomic.Bool
	shedding atomic.Bool
	seq      atomic.Uint64
}

// mciKind is the device kind the mci kernel runs on, which a shedding
// fakePeer advertises so the router considers it eligible.
var mciKind = func() string {
	k, err := kernels.ByName("mci")
	if err != nil {
		panic(err)
	}
	return k.Kind().String()
}()

func newFakePeer(t *testing.T, name string) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	f := &fakePeer{ln: ln, name: name}
	go f.serve()
	t.Cleanup(func() { ln.Close() })
	return f
}

func (f *fakePeer) addr() string { return f.ln.Addr().String() }

func (f *fakePeer) serve() {
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			for {
				msg, err := wire.Read(conn)
				if err != nil {
					return
				}
				reply := &wire.Message{Type: wire.MsgError, Header: wire.Header{
					Error: "muted", Code: wire.CodeInternal,
				}}
				switch {
				case msg.Type == wire.MsgHello:
					reply = &wire.Message{Type: wire.MsgHelloAck, Header: wire.Header{MuxVersion: wire.VersionMux}}
				case msg.Type == wire.MsgControl && !f.muted.Load():
					g := &cplane.Gossip{Node: f.name, Addr: f.addr(), Seq: f.seq.Add(1)}
					if f.shedding.Load() {
						g.Kernels = []string{"mci"}
						g.Eligible = map[string]int{mciKind: 1}
					}
					body, _ := json.Marshal(g)
					reply = &wire.Message{Type: wire.MsgControlAck, Body: body}
				case msg.Type == wire.MsgInvoke && f.shedding.Load():
					reply.Header = wire.Header{Error: "shedding", Code: wire.CodeOverloaded}
				}
				reply.Version = msg.Version
				reply.Header.StreamID = msg.Header.StreamID
				wire.Write(conn, reply)
			}
		}()
	}
}

// waitFor polls cond until it holds or the wall deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// peerRow finds the membership row for the given address.
func peerRow(n *cplane.Node, addr string) (cplane.Member, bool) {
	for _, m := range n.Members() {
		if m.Addr == addr {
			return m, true
		}
	}
	return cplane.Member{}, false
}

// TestHeartbeatFlapExactlyOnce drives a peer through miss/resume cycles
// on a manual clock and asserts the node records exactly one transition
// per state change: down once when SuspectAfter misses accumulate (no
// per-miss thrash), up once when heartbeats resume.
func TestHeartbeatFlapExactlyOnce(t *testing.T) {
	fake := newFakePeer(t, "flappy")
	clock := vclock.NewManual(time.Unix(0, 0))
	n := cplane.NewNode(cplane.Config{
		Name:           "observer",
		Clock:          clock,
		HeartbeatEvery: time.Second,
		SuspectAfter:   2,
	})
	t.Cleanup(n.Close)

	// Join fires the first beat immediately (no clock advance needed).
	// Member.Beats increments only after the next beat's timer is armed,
	// so once it ticks, one clock advance fires exactly one more beat —
	// the stepping below is deterministic.
	n.Join(fake.addr())
	row := func() cplane.Member {
		m, ok := peerRow(n, fake.addr())
		if !ok {
			t.Fatal("peer missing from membership view")
		}
		return m
	}
	waitFor(t, "initial beat", func() bool { return row().Beats >= 1 })
	if m := row(); !m.Alive || m.Ups != 1 {
		t.Fatalf("after admission: alive=%v ups=%d, want alive with 1 up", m.Alive, m.Ups)
	}

	beatOnce := func() {
		t.Helper()
		before := row().Beats
		clock.Advance(time.Second)
		waitFor(t, "heartbeat cycle", func() bool { return row().Beats == before+1 })
	}

	fake.muted.Store(true)
	beatOnce() // miss 1: suspect, but no transition yet
	if m := row(); !m.Alive || m.Downs != 0 {
		t.Fatalf("after one miss: alive=%v downs=%d, want alive with 0 downs", m.Alive, m.Downs)
	}
	beatOnce() // miss 2 = SuspectAfter: exactly one down transition
	if m := row(); m.Alive || m.Downs != 1 {
		t.Fatalf("after two misses: alive=%v downs=%d, want down with 1 transition", m.Alive, m.Downs)
	}
	beatOnce() // misses 3 and 4: already down, no further transitions
	beatOnce()
	if m := row(); m.Downs != 1 || m.Ups != 1 {
		t.Fatalf("after repeated misses: downs=%d ups=%d, want exactly 1/1", m.Downs, m.Ups)
	}

	fake.muted.Store(false)
	beatOnce() // resume: exactly one up transition
	if m := row(); !m.Alive || m.Ups != 2 {
		t.Fatalf("after resume: alive=%v ups=%d, want re-admitted once", m.Alive, m.Ups)
	}
	beatOnce() // still alive: no further transitions
	beatOnce()
	if m := row(); m.Downs != 1 || m.Ups != 2 {
		t.Fatalf("after flap settled: downs=%d ups=%d, want exactly 1/2", m.Downs, m.Ups)
	}
}

// TestReportUnreachableSingleTransition: a router-reported failure marks
// the peer down exactly once, repeated reports add nothing, and the next
// successful heartbeat re-admits it.
func TestReportUnreachableSingleTransition(t *testing.T) {
	fake := newFakePeer(t, "gone")
	clock := vclock.NewManual(time.Unix(0, 0))
	n := cplane.NewNode(cplane.Config{Name: "observer", Clock: clock, HeartbeatEvery: time.Second})
	t.Cleanup(n.Close)
	n.Join(fake.addr())
	row := func() cplane.Member {
		m, _ := peerRow(n, fake.addr())
		return m
	}
	waitFor(t, "admission", func() bool { return row().Beats >= 1 })

	n.ReportUnreachable(fake.addr())
	n.ReportUnreachable(fake.addr())
	if m := row(); m.Alive || m.Downs != 1 {
		t.Fatalf("after ReportUnreachable x2: alive=%v downs=%d, want down with 1 transition", m.Alive, m.Downs)
	}
	// Heartbeats still answer, so the next beat re-admits the peer.
	before := row().Beats
	clock.Advance(time.Second)
	waitFor(t, "re-admission", func() bool { return row().Beats == before+1 })
	if m := row(); !m.Alive || m.Ups != 2 || m.Downs != 1 {
		t.Fatalf("after heartbeat resumes: alive=%v ups=%d downs=%d, want alive 2/1", m.Alive, m.Ups, m.Downs)
	}
}

// TestWaitMembersWakesOnPublish: a WaitMembers call returns as soon as a
// publish makes enough peers alive, not on a polling tick. The median
// over 100 waits, each ended by an inbound gossip that re-admits the
// peer, stays well under the 1 ms a wall-clock poll would cost.
func TestWaitMembersWakesOnPublish(t *testing.T) {
	fake := newFakePeer(t, "peer")
	n := cplane.NewNode(cplane.Config{Name: "observer", Clock: vclock.NewManual(time.Unix(0, 0))})
	t.Cleanup(n.Close)
	n.Join(fake.addr())
	waitFor(t, "admission", func() bool {
		m, _ := peerRow(n, fake.addr())
		return m.Alive && m.Beats >= 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	gossip := &cplane.Gossip{Node: "peer", Addr: fake.addr()}
	const waits = 100
	lat := make([]time.Duration, 0, waits)
	for i := 0; i < waits; i++ {
		n.ReportUnreachable(fake.addr())
		done := make(chan time.Time, 1)
		go func() {
			if err := n.WaitMembers(ctx, 1); err != nil {
				t.Error(err)
			}
			done <- time.Now()
		}()
		for !n.Waiting() {
			runtime.Gosched()
		}
		start := time.Now()
		n.Observe(gossip)
		lat = append(lat, (<-done).Sub(start))
	}
	slices.Sort(lat)
	if med := lat[waits/2]; med >= 300*time.Microsecond {
		t.Errorf("median wait after the publish = %v, want < 300µs (p90 %v)", med, lat[waits*9/10])
	}
}

// newClusterNode builds a wire-serving platform joined to the given seed
// peers.
func newClusterNode(t *testing.T, name string, peers ...string) *kaas.Platform {
	t.Helper()
	p, err := kaas.New(
		kaas.WithHostName(name),
		kaas.WithAccelerators(kaas.TeslaP100),
		kaas.WithTimeScale(2000),
		kaas.WithListenAddr("127.0.0.1:0"),
		kaas.WithClusterNode(name, peers...),
	)
	if err != nil {
		t.Fatalf("New %s: %v", name, err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestGossipConvergesMembershipAndKernels: three nodes joined in a chain
// (c→b→a) converge to a full mesh through gossiped peer lists, and a
// kernel registered on one node propagates to all of them.
func TestGossipConvergesMembershipAndKernels(t *testing.T) {
	a := newClusterNode(t, "node-a")
	b := newClusterNode(t, "node-b", a.Addr())
	c := newClusterNode(t, "node-c", b.Addr())

	for _, p := range []*kaas.Platform{a, b, c} {
		p := p
		waitFor(t, "full mesh on "+p.ClusterNode().Name(), func() bool {
			alive := 0
			for _, m := range p.ClusterNode().Members() {
				if !m.Self && m.Alive {
					alive++
				}
			}
			return alive == 2
		})
	}

	if err := a.RegisterByName("mci"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	for _, p := range []*kaas.Platform{b, c} {
		p := p
		waitFor(t, "kernel propagation to "+p.ClusterNode().Name(), func() bool {
			for _, name := range p.Kernels() {
				if name == "mci" {
					return true
				}
			}
			return false
		})
	}

	// The status envelope answers over the wire too (the kaasctl path).
	cl, err := a.NewClient()
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()
	payload, _ := json.Marshal(&cplane.Envelope{Type: cplane.ControlStatus})
	body, err := cl.ControlContext(context.Background(), payload)
	if err != nil {
		t.Fatalf("ControlContext: %v", err)
	}
	var st cplane.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	if st.Node != "node-a" || len(st.Members) != 3 {
		t.Fatalf("status = node %q with %d members, want node-a with 3", st.Node, len(st.Members))
	}
	if !st.Members[0].Self {
		t.Error("status does not list self first")
	}
}

// TestRouterFailsOverOnNodeDeath: an observer-backed router re-dispatches
// an invocation that hits a freshly killed node to a live peer, marks the
// dead node unreachable, and counts the failover.
func TestRouterFailsOverOnNodeDeath(t *testing.T) {
	a := newClusterNode(t, "node-a")
	b := newClusterNode(t, "node-b", a.Addr())

	obs := cplane.NewNode(cplane.Config{Name: "router"})
	t.Cleanup(obs.Close)
	obs.Join(a.Addr())
	obs.Join(b.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := obs.WaitMembers(ctx, 2); err != nil {
		t.Fatalf("WaitMembers: %v", err)
	}

	budget := client.NewRetryBudget(8, 0.5)
	r := cplane.NewRouter(cplane.RouterConfig{Node: obs, Budget: budget, Idempotent: true})
	t.Cleanup(r.Close)
	if err := r.Register(ctx, "mci"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := r.Invoke(ctx, "mci", kaas.Params{"n": 1000}, nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}

	// Kill node-a abruptly. Ties break by name, so with equal load the
	// router picks node-a first, observes the connection failure, and
	// must fail over to node-b.
	a.Close()
	res, err := r.Invoke(ctx, "mci", kaas.Params{"n": 1000}, nil)
	if err != nil {
		t.Fatalf("Invoke after kill: %v", err)
	}
	if res == nil || res.Values["estimate"] == 0 {
		t.Error("failover result missing")
	}
	st := r.Stats()
	if st.FailedOver < 1 || st.Redispatches < 1 {
		t.Errorf("router stats = %+v, want at least one failover", st)
	}
	if m, ok := peerRow(obs, a.Addr()); !ok || m.Alive {
		t.Error("dead node still alive in membership view")
	}

	// Subsequent invocations skip the dead node outright: no further
	// re-dispatches accrue.
	before := r.Stats().Redispatches
	for i := 0; i < 3; i++ {
		if _, err := r.Invoke(ctx, "mci", kaas.Params{"n": 1000}, nil); err != nil {
			t.Fatalf("Invoke %d after down-mark: %v", i, err)
		}
	}
	if after := r.Stats().Redispatches; after != before {
		t.Errorf("%d re-dispatches against a known-dead node", after-before)
	}
}

// TestRouterBudgetBoundsRedispatches: when every member sheds with a
// retryable error, the shared retry budget, not the member count, ends
// the failover chain. The first pick is free, re-dispatches stop at the
// budget's capacity, and each one skipped for want of a token is counted
// — within one invocation and across invocations sharing the bucket.
func TestRouterBudgetBoundsRedispatches(t *testing.T) {
	obs := cplane.NewNode(cplane.Config{Name: "router"})
	t.Cleanup(obs.Close)
	const members = 5
	for i := 0; i < members; i++ {
		f := newFakePeer(t, fmt.Sprintf("shed-%d", i))
		f.shedding.Store(true)
		obs.Join(f.addr())
	}
	waitFor(t, "every member gossiping mci", func() bool {
		serving := 0
		for _, m := range obs.Members() {
			if m.Alive && len(m.Kernels) == 1 && m.Kernels[0] == "mci" {
				serving++
			}
		}
		return serving == members
	})

	budget := client.NewRetryBudget(2, 0.1)
	r := cplane.NewRouter(cplane.RouterConfig{Node: obs, Budget: budget})
	t.Cleanup(r.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for i, want := range []cplane.RouterStats{
		// Two paid re-dispatches, then the third is skipped.
		{Dispatches: 1, Redispatches: 2, BudgetExhausted: 1},
		// The bucket is empty: no re-dispatch at all.
		{Dispatches: 2, Redispatches: 2, BudgetExhausted: 2},
	} {
		_, err := r.Invoke(ctx, "mci", kaas.Params{"n": 1000}, nil)
		var re *client.RemoteError
		if !errors.As(err, &re) || re.Code != wire.CodeOverloaded {
			t.Fatalf("invoke %d: err = %v, want the last member's OVERLOADED", i, err)
		}
		if got := r.Stats(); got != want {
			t.Fatalf("invoke %d: router stats = %+v, want %+v", i, got, want)
		}
	}
	if budget.Spent() != 2 || budget.Exhausted() != 2 {
		t.Errorf("budget Spent/Exhausted = %d/%d, want 2/2", budget.Spent(), budget.Exhausted())
	}
	// The pick that found the bucket empty gave its claim back.
	for addr, n := range r.InFlight() {
		if n != 0 {
			t.Errorf("route %s holds %d in-flight claims after every call returned", addr, n)
		}
	}
}

// TestRouterSkipsDrainingNode: invocations keep succeeding across a
// graceful drain — either the drain state has gossiped (the node is
// skipped) or the race surfaces a typed UNAVAILABLE that re-dispatches
// to the survivor.
func TestRouterSkipsDrainingNode(t *testing.T) {
	a := newClusterNode(t, "node-a")
	b := newClusterNode(t, "node-b", a.Addr())

	obs := cplane.NewNode(cplane.Config{Name: "router"})
	t.Cleanup(obs.Close)
	obs.Join(a.Addr())
	obs.Join(b.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := obs.WaitMembers(ctx, 2); err != nil {
		t.Fatalf("WaitMembers: %v", err)
	}
	r := cplane.NewRouter(cplane.RouterConfig{Node: obs, Idempotent: true})
	t.Cleanup(r.Close)
	if err := r.Register(ctx, "mci"); err != nil {
		t.Fatalf("Register: %v", err)
	}

	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := r.Invoke(ctx, "mci", kaas.Params{"n": 1000}, nil); err != nil {
			t.Fatalf("Invoke %d during drain: %v", i, err)
		}
	}
}

// TestRouterUnknownKernel surfaces a terminal error instead of spinning
// across members.
func TestRouterUnknownKernel(t *testing.T) {
	a := newClusterNode(t, "node-a")
	obs := cplane.NewNode(cplane.Config{Name: "router"})
	t.Cleanup(obs.Close)
	obs.Join(a.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := obs.WaitMembers(ctx, 1); err != nil {
		t.Fatalf("WaitMembers: %v", err)
	}
	r := cplane.NewRouter(cplane.RouterConfig{Node: obs})
	t.Cleanup(r.Close)
	if _, err := r.Invoke(ctx, "ghost", nil, nil); err == nil {
		t.Fatal("unknown kernel succeeded")
	}
}

// TestControlHandlerRejectsGarbage: malformed control payloads produce
// typed errors, not panics.
func TestControlHandlerRejectsGarbage(t *testing.T) {
	n := cplane.NewNode(cplane.Config{Name: "n"})
	t.Cleanup(n.Close)
	if _, err := n.HandleControl([]byte("not json")); err == nil {
		t.Error("garbage payload accepted")
	}
	if _, err := n.HandleControl([]byte(`{"type":"nope"}`)); err == nil {
		t.Error("unknown control type accepted")
	}
	if _, err := n.HandleControl([]byte(`{"type":"gossip"}`)); err == nil {
		t.Error("gossip without payload accepted")
	}
}

// newFakeCluster joins shedding fake peers with the given names (each
// gossips that it serves mci) to an observer on a manual clock, waits
// for every first beat, and returns the observer, a router over it, the
// clock and the peers. SuspectAfter is 1, so one missed beat marks a
// peer down.
func newFakeCluster(t *testing.T, names ...string) (*cplane.Node, *cplane.Router, *vclock.Manual, []*fakePeer) {
	t.Helper()
	clock := vclock.NewManual(time.Unix(0, 0))
	obs := cplane.NewNode(cplane.Config{Name: "router", Clock: clock, HeartbeatEvery: time.Second, SuspectAfter: 1})
	t.Cleanup(obs.Close)
	fakes := make([]*fakePeer, len(names))
	for i, name := range names {
		fakes[i] = newFakePeer(t, name)
		fakes[i].shedding.Store(true)
		obs.Join(fakes[i].addr())
	}
	for _, f := range fakes {
		waitFor(t, "first beat to "+f.name, func() bool {
			m, _ := peerRow(obs, f.addr())
			return m.Alive && m.Beats == 1 && len(m.Kernels) == 1
		})
	}
	r := cplane.NewRouter(cplane.RouterConfig{Node: obs})
	t.Cleanup(r.Close)
	return obs, r, clock, fakes
}

// stepBeat advances the manual clock one heartbeat and waits until every
// given peer's beat has been counted.
func stepBeat(t *testing.T, obs *cplane.Node, clock *vclock.Manual, fakes []*fakePeer) {
	t.Helper()
	before := make([]uint64, len(fakes))
	for i, f := range fakes {
		m, _ := peerRow(obs, f.addr())
		before[i] = m.Beats
	}
	clock.Advance(time.Second)
	for i, f := range fakes {
		waitFor(t, "beat to "+f.name, func() bool {
			m, _ := peerRow(obs, f.addr())
			return m.Beats == before[i]+1
		})
	}
}

// TestPickFollowsMissAndReadmit: a missed beat that marks a member down
// moves the pick off it, and a re-admission moves it back — both by the
// member's next heartbeat and by an inbound one (Observe).
func TestPickFollowsMissAndReadmit(t *testing.T) {
	obs, r, clock, fakes := newFakeCluster(t, "a", "b")
	a := fakes[0]
	a.muted.Store(true)
	stepBeat(t, obs, clock, fakes)
	if got := r.PickNode("mci"); got != "b" {
		t.Fatalf("pick after a missed its beat = %q, want b", got)
	}
	a.muted.Store(false)
	stepBeat(t, obs, clock, fakes)
	if got := r.PickNode("mci"); got != "a" {
		t.Fatalf("pick after a answered again = %q, want a", got)
	}

	obs.ReportUnreachable(a.addr())
	obs.Observe(&cplane.Gossip{Node: "a", Addr: a.addr(), Kernels: []string{"mci"}, Eligible: map[string]int{mciKind: 1}})
	if got := r.PickNode("mci"); got != "a" {
		t.Errorf("pick after a heartbeated the observer = %q, want a", got)
	}
}

// TestRegisterRoutesBeforeNextBeat: a kernel registered through the
// router is routable at once, before any heartbeat could have gossiped
// it.
func TestRegisterRoutesBeforeNextBeat(t *testing.T) {
	a := newClusterNode(t, "node-a")
	obs := cplane.NewNode(cplane.Config{Name: "router", Clock: vclock.NewManual(time.Unix(0, 0))})
	t.Cleanup(obs.Close)
	obs.Join(a.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := obs.WaitMembers(ctx, 1); err != nil {
		t.Fatalf("WaitMembers: %v", err)
	}
	r := cplane.NewRouter(cplane.RouterConfig{Node: obs})
	t.Cleanup(r.Close)
	if got := r.PickNode("mci"); got != "" {
		t.Fatalf("mci routed to %s before it was registered", got)
	}
	if err := r.Register(ctx, "mci"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := r.Invoke(ctx, "mci", kaas.Params{"n": 1000}, nil); err != nil {
		t.Fatalf("Invoke right after Register: %v", err)
	}
	if m, _ := peerRow(obs, a.Addr()); m.Beats != 1 {
		t.Errorf("observer beat node-a %d times, want only the first beat", m.Beats)
	}
}

// TestJoinListsPeerAtOnce: a joined peer has a row in the view before its
// first heartbeat answers.
func TestJoinListsPeerAtOnce(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		// Accept and never answer, holding the first beat open.
		var conns []net.Conn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c)
		}
	}()
	n := cplane.NewNode(cplane.Config{Name: "observer", HeartbeatTimeout: time.Minute})
	t.Cleanup(n.Close)
	n.Join(ln.Addr().String())
	m, ok := peerRow(n, ln.Addr().String())
	if !ok || m.Node != "?" || m.Alive {
		t.Errorf("row right after Join = %+v (found %v), want an unnamed peer not yet alive", m, ok)
	}
}

// TestRouterReleasesEveryClaim: however a call ends — success, a
// retryable shed that fails over, a connection failure that fails over,
// a cancelled context — every in-flight claim a pick took is given back.
func TestRouterReleasesEveryClaim(t *testing.T) {
	b := newClusterNode(t, "node-b")
	c := newClusterNode(t, "node-c", b.Addr())
	obs := cplane.NewNode(cplane.Config{Name: "router", Clock: vclock.NewManual(time.Unix(0, 0))})
	t.Cleanup(obs.Close)
	obs.Join(b.Addr())
	obs.Join(c.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := obs.WaitMembers(ctx, 2); err != nil {
		t.Fatalf("WaitMembers: %v", err)
	}
	r := cplane.NewRouter(cplane.RouterConfig{Node: obs, Idempotent: true})
	t.Cleanup(r.Close)
	if err := r.Register(ctx, "mci"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	invoke := func(ctx context.Context, what string, wantFailedOver uint64) {
		t.Helper()
		if _, err := r.Invoke(ctx, "mci", kaas.Params{"n": 1000}, nil); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := r.Stats().FailedOver; got != wantFailedOver {
			t.Fatalf("after %s: FailedOver = %d, want %d", what, got, wantFailedOver)
		}
	}
	for i := 0; i < 3; i++ {
		invoke(ctx, "success", 0)
	}

	// node-a-shed sorts first, so every call tries it first and fails
	// over on its OVERLOADED.
	shed := newFakePeer(t, "node-a-shed")
	shed.shedding.Store(true)
	obs.Join(shed.addr())
	waitFor(t, "node-a-shed gossiping mci", func() bool {
		m, _ := peerRow(obs, shed.addr())
		return m.Alive && len(m.Kernels) == 1
	})
	invoke(ctx, "shed failover", 1)
	b.Close()
	invoke(ctx, "shed and dead-node failover", 2)

	cancelled, cancelNow := context.WithCancel(ctx)
	cancelNow()
	if _, err := r.Invoke(cancelled, "mci", kaas.Params{"n": 1000}, nil); err == nil {
		t.Fatal("cancelled call succeeded")
	}

	inflight := r.InFlight()
	if len(inflight) != 3 {
		t.Errorf("routes = %v, want one per member", inflight)
	}
	for addr, n := range inflight {
		if n != 0 {
			t.Errorf("route %s holds %d in-flight claims after every call returned", addr, n)
		}
	}
}

// nullKernel costs nothing and returns nothing, so a call's allocations
// are the middleware's.
type nullKernel struct{}

func (nullKernel) Name() string          { return "null" }
func (nullKernel) Kind() kaas.DeviceKind { return kaas.GPU }
func (nullKernel) Cost(*kernels.Request) (kernels.Cost, error) {
	return kernels.Cost{}, nil
}
func (nullKernel) Execute(*kernels.Request) (*kernels.Response, error) {
	return &kernels.Response{}, nil
}

// TestRouterAddsNoAllocations: over a two-node loopback cluster, a warm
// call through the router allocates exactly what the same call through a
// direct client to the member it lands on does.
func TestRouterAddsNoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	// Gossip beats once at join and then not for minutes of wall time,
	// so no heartbeat allocates while calls are counted.
	node := func(name string, peers ...string) *kaas.Platform {
		p, err := kaas.New(
			kaas.WithHostName(name),
			kaas.WithAccelerators(kaas.TeslaP100),
			kaas.WithTimeScale(2000),
			kaas.WithListenAddr("127.0.0.1:0"),
			kaas.WithClusterNode(name, peers...),
			kaas.WithClusterHeartbeat(1e6*time.Second, 2),
		)
		if err != nil {
			t.Fatalf("New %s: %v", name, err)
		}
		t.Cleanup(p.Close)
		if err := p.Register(nullKernel{}); err != nil {
			t.Fatalf("Register: %v", err)
		}
		return p
	}
	a := node("node-a")
	b := node("node-b", a.Addr())
	obs := cplane.NewNode(cplane.Config{Name: "router", Clock: vclock.NewManual(time.Unix(0, 0))})
	t.Cleanup(obs.Close)
	obs.Join(a.Addr())
	obs.Join(b.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := obs.WaitMembers(ctx, 2); err != nil {
		t.Fatalf("WaitMembers: %v", err)
	}
	r := cplane.NewRouter(cplane.RouterConfig{Node: obs})
	t.Cleanup(r.Close)
	direct := client.Dial(a.Addr())
	t.Cleanup(direct.Close)

	// One call at a time, so every routed call lands on node-a, which
	// wins the name tiebreak.
	routed := func() {
		if _, err := r.Invoke(ctx, "null", nil, nil); err != nil {
			t.Fatalf("routed call: %v", err)
		}
	}
	plain := func() {
		if _, err := direct.InvokeContext(ctx, "null", nil, nil); err != nil {
			t.Fatalf("direct call: %v", err)
		}
	}
	// Warm up: connections dialed, the runner booted, pools full.
	for i := 0; i < 200; i++ {
		routed()
		plain()
	}
	viaRouter := testing.AllocsPerRun(200, routed)
	viaClient := testing.AllocsPerRun(200, plain)
	t.Logf("allocs per call: routed %v, direct %v", viaRouter, viaClient)
	if viaRouter != viaClient {
		t.Errorf("routed call %v allocs, direct call %v: the router adds %v", viaRouter, viaClient, viaRouter-viaClient)
	}
	if got := b.Stats().PerKernel["null"].Invocations; got != 0 {
		t.Errorf("node-b served %d routed calls, want none", got)
	}
}
