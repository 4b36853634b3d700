// Package cplane is the wire-backed cluster control plane: kaasd nodes
// join each other over the KaaS wire protocol (MsgControl frames on the
// existing transport), exchange modeled-time heartbeats, gossip
// per-node health summaries (drain state, in-flight load, shed rate,
// open-breaker counts per device kind), and propagate kernel
// registrations cluster-wide. On top of the membership view, Router
// dispatches invocations to the least-loaded healthy node and fails
// retryable typed errors over to peers under a shared retry budget.
//
// Membership is symmetric and gossip-driven: a node only needs one seed
// peer — its first heartbeat introduces it (name and advertised
// address) to the receiver, which admits it and starts heartbeating
// back. Nodes that advertise no address (observers, e.g. a client-side
// Router) receive the full gossip exchange but are never admitted to
// the routing set.
//
// Failure detection is deliberately boring: a peer that misses
// SuspectAfter consecutive heartbeats is marked down exactly once (no
// per-miss thrash) and re-admitted exactly once on its next successful
// exchange. A router that observes a connection-level failure can
// short-circuit detection with ReportUnreachable.
package cplane

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kaas/internal/client"
	"kaas/internal/core"
	"kaas/internal/kernels"
	"kaas/internal/vclock"
)

// Control envelope types carried in MsgControl payloads.
const (
	// ControlGossip is a heartbeat: the body carries the sender's
	// Gossip, the reply carries the receiver's.
	ControlGossip = "gossip"
	// ControlStatus asks the receiving node for its membership view
	// (kaasctl cluster status).
	ControlStatus = "status"
)

// Envelope frames one control-plane request.
type Envelope struct {
	// Type selects the request (ControlGossip or ControlStatus).
	Type string `json:"type"`
	// Gossip is the sender's health summary on ControlGossip requests.
	Gossip *Gossip `json:"gossip,omitempty"`
}

// Gossip is one node's self-reported health summary. It rides
// MsgControl frames as JSON in both directions of a heartbeat, so every
// exchange refreshes both ends' view of each other.
type Gossip struct {
	// Node is the sender's cluster-unique name.
	Node string `json:"node"`
	// Addr is the sender's advertised wire address. Empty for
	// observers, which are never admitted to the routing set.
	Addr string `json:"addr,omitempty"`
	// Seq increases with every summary the sender builds.
	Seq uint64 `json:"seq"`
	// Draining reports the sender is shutting down (or closed) and must
	// not receive new work.
	Draining bool `json:"draining,omitempty"`
	// InFlight is the sender's admitted in-flight invocation count.
	InFlight int `json:"inFlight"`
	// ShedRate is the sender's admission-control rejection rate in
	// sheds per modeled second since its previous summary.
	ShedRate float64 `json:"shedRate,omitempty"`
	// Eligible maps device-kind name to the number of devices placement
	// may currently use on the sender.
	Eligible map[string]int `json:"eligible,omitempty"`
	// OpenBreakers maps device-kind name to the sender's open-breaker
	// count.
	OpenBreakers map[string]int `json:"openBreakers,omitempty"`
	// Kernels lists the kernel names registered on the sender. Peers
	// adopt library kernels they are missing, propagating registrations
	// cluster-wide without a coordinator.
	Kernels []string `json:"kernels,omitempty"`
	// Tenants maps tenant name to the sender's per-tenant load summary
	// (only tenants with live load or a saturated bound are listed), so
	// routers can skip members a tenant has already saturated.
	Tenants map[string]core.TenantHealth `json:"tenants,omitempty"`
	// Peers lists the wire addresses of the members the sender knows,
	// so membership converges transitively: a node that joins one seed
	// is introduced to the whole cluster within a heartbeat round.
	Peers []string `json:"peers,omitempty"`
}

// Member is one row of a node's membership view.
type Member struct {
	// Node is the member's name ("?" until its first gossip arrives).
	Node string `json:"node"`
	// Addr is the member's wire address (empty for the local observer).
	Addr string `json:"addr"`
	// Self marks the local node's own row.
	Self bool `json:"self,omitempty"`
	// Alive reports the member answered its most recent heartbeat.
	Alive bool `json:"alive"`
	// Draining mirrors the member's last gossiped drain state.
	Draining bool `json:"draining,omitempty"`
	// InFlight mirrors the member's last gossiped in-flight count.
	InFlight int `json:"inFlight"`
	// ShedRate mirrors the member's last gossiped shed rate.
	ShedRate float64 `json:"shedRate,omitempty"`
	// Eligible mirrors the member's last gossiped per-kind eligible
	// device counts.
	Eligible map[string]int `json:"eligible,omitempty"`
	// OpenBreakers mirrors the member's last gossiped per-kind
	// open-breaker counts.
	OpenBreakers map[string]int `json:"openBreakers,omitempty"`
	// Kernels mirrors the member's last gossiped kernel names.
	Kernels []string `json:"kernels,omitempty"`
	// Tenants mirrors the member's last gossiped per-tenant load.
	Tenants map[string]core.TenantHealth `json:"tenants,omitempty"`
	// Downs counts alive→down transitions observed for this member.
	Downs uint64 `json:"downs,omitempty"`
	// Ups counts down→alive transitions (including first admission).
	Ups uint64 `json:"ups,omitempty"`
	// Beats counts completed heartbeat exchanges (hit or miss) with this
	// member. Tests step the clock one heartbeat at a time by watching
	// it; kaasctl surfaces it as a liveness odometer.
	Beats uint64 `json:"beats,omitempty"`
}

// Status is the reply to a ControlStatus request.
type Status struct {
	// Node is the answering node's name.
	Node string `json:"node"`
	// Members is the answering node's membership view, self first, then
	// peers sorted by name.
	Members []Member `json:"members"`
}

// Config configures a Node.
type Config struct {
	// Name is the node's cluster-unique name.
	Name string
	// Addr is the advertised wire address of the node's TCP endpoint.
	// Empty makes the node an observer: it heartbeats peers and tracks
	// membership but is never routed to and never heartbeated back.
	Addr string
	// Clock drives heartbeat scheduling in modeled time.
	Clock vclock.Clock
	// Local is the node's serving core (its health feeds the node's
	// gossip). Nil for observers.
	Local *core.Server
	// HeartbeatEvery is the modeled interval between heartbeats to each
	// peer (default 1s).
	HeartbeatEvery time.Duration
	// SuspectAfter is how many consecutive missed heartbeats mark a
	// peer down (default 2).
	SuspectAfter int
	// HeartbeatTimeout bounds each heartbeat RPC in wall time (default
	// 1s): heartbeats are tiny, so a peer that cannot answer quickly is
	// as good as down.
	HeartbeatTimeout time.Duration
	// DialOptions are applied to the clients the node opens to peers.
	DialOptions []client.Option
	// Logger receives membership transitions. Nil discards.
	Logger *slog.Logger
}

// Node is one cluster member: it heartbeats its peers, serves their
// heartbeats and status queries through HandleControl, and maintains
// the membership view Router routes on.
type Node struct {
	cfg   Config
	clock vclock.Clock
	log   *slog.Logger

	mu       sync.Mutex
	peers    map[string]*peer // keyed by advertised address
	closed   bool
	seq      uint64
	lastShed uint64    // cumulative sheds at the previous summary
	lastBeat time.Time // modeled time of the previous summary

	// view is the peers' membership rows sorted by name (address as
	// tiebreak). publishLocked rebuilds it under mu whenever a row field
	// changes; a published slice and its rows are never written again,
	// so Members and Router.pick read it without taking mu.
	view atomic.Pointer[[]Member]
	// published, when WaitMembers has made it, is closed and cleared by
	// the next publishLocked.
	published chan struct{}
}

// peer is the node's private state for one remote member.
type peer struct {
	addr   string
	name   string
	c      *client.Client
	alive  bool
	misses int
	downs  uint64
	ups    uint64
	beats  uint64
	last   Gossip
	timer  vclock.Timer // pending heartbeat, cancelled on Close
}

// NewNode creates a node and returns it without contacting anyone; call
// Join to seed the peer set.
func NewNode(cfg Config) *Node {
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real()
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 2
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(discardHandler{})
	}
	return &Node{
		cfg:   cfg,
		clock: cfg.Clock,
		log:   cfg.Logger.With("node", cfg.Name),
	}
}

// Name returns the node's cluster name.
func (n *Node) Name() string { return n.cfg.Name }

// Join adds a peer by wire address and starts heartbeating it.
// Idempotent; joining the node's own address is a no-op. The peer
// learns about this node (and any others) from the heartbeats
// themselves, so one seed address is enough to join a cluster.
func (n *Node) Join(addr string) {
	if p := n.admit(addr); p != nil {
		go n.beat(p)
	}
}

// admit creates the peer record (and its client) for addr if it is new,
// returning nil when the peer already exists, is the node itself, or
// the node is closed.
func (n *Node) admit(addr string) *peer {
	if addr == "" || addr == n.cfg.Addr {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	if n.peers == nil {
		n.peers = make(map[string]*peer)
	}
	if _, ok := n.peers[addr]; ok {
		return nil
	}
	p := &peer{addr: addr, name: "?", c: client.Dial(addr, n.cfg.DialOptions...)}
	n.peers[addr] = p
	n.publishLocked()
	return p
}

// Close stops all heartbeats and closes the peer clients. In-flight
// heartbeats finish (and may record one last miss) but never reschedule.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
		if p.timer != nil {
			p.timer.Stop()
		}
	}
	n.mu.Unlock()
	for _, p := range peers {
		p.c.Close()
	}
}

// beat performs one heartbeat exchange with p, records the outcome, and
// schedules the next beat.
func (n *Node) beat(p *peer) {
	payload, err := json.Marshal(&Envelope{Type: ControlGossip, Gossip: n.localGossip()})
	if err != nil {
		n.log.Error("encode gossip", "err", err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.HeartbeatTimeout)
	body, err := p.c.ControlContext(ctx, payload)
	cancel()
	var g Gossip
	if err == nil {
		if derr := json.Unmarshal(body, &g); derr != nil {
			err = fmt.Errorf("decode gossip reply: %w", derr)
		} else {
			n.adoptKernels(g.Kernels)
			n.joinPeers(g.Peers)
		}
	}

	n.mu.Lock()
	var up, down bool
	if err != nil {
		down = n.missLocked(p)
	} else {
		up = n.heardLocked(p, &g)
	}
	if !n.closed {
		p.timer = n.clock.AfterFunc(n.cfg.HeartbeatEvery, func() {
			// AfterFunc callbacks share the clock's dispatcher goroutine;
			// the RPC must not run there.
			go n.beat(p)
		})
	}
	// beats increments only after the next timer is armed, so an
	// observer that saw it tick knows one clock advance fires exactly
	// one more beat. One publish covers the outcome and the count.
	p.beats++
	n.publishLocked()
	misses, name := p.misses, p.name
	n.mu.Unlock()
	if down {
		n.log.Warn("peer down", "peer", name, "addr", p.addr, "misses", misses, "err", err)
	}
	if up {
		n.log.Info("peer up", "peer", name, "addr", p.addr)
	}
}

// missLocked records one failed heartbeat and reports whether it marked
// the peer down. The peer is marked down exactly once, when the miss
// count crosses SuspectAfter — repeated misses on an already-down peer
// cause no further transitions. The caller holds n.mu and publishes.
func (n *Node) missLocked(p *peer) bool {
	p.misses++
	down := p.alive && p.misses >= n.cfg.SuspectAfter
	if down {
		p.alive = false
		p.downs++
	}
	return down
}

// heard records gossip from p received outside p's own heartbeat (p
// heartbeated us) and publishes the changed row.
func (n *Node) heard(p *peer, g *Gossip) {
	n.mu.Lock()
	up := n.heardLocked(p, g)
	n.publishLocked()
	name := p.name
	n.mu.Unlock()
	if up {
		n.log.Info("peer up", "peer", name, "addr", p.addr)
	}
}

// heardLocked records a successful gossip exchange with p and reports
// whether it re-admitted the peer: the miss count resets and a down peer
// is re-admitted exactly once. The caller holds n.mu and publishes.
func (n *Node) heardLocked(p *peer, g *Gossip) bool {
	if g.Node != "" {
		p.name = g.Node
	}
	p.misses = 0
	up := !p.alive
	if up {
		p.alive = true
		p.ups++
	}
	p.last = *g
	return up
}

// ReportUnreachable marks the peer at addr down immediately — the
// routing layer calls it when an invocation fails at the connection
// level, short-circuiting heartbeat-based detection. Exactly one
// transition is recorded; the next successful heartbeat re-admits the
// peer.
func (n *Node) ReportUnreachable(addr string) {
	n.mu.Lock()
	p := n.peers[addr]
	down := p != nil && p.alive
	var name string
	if down {
		p.alive = false
		p.downs++
		if p.misses < n.cfg.SuspectAfter {
			p.misses = n.cfg.SuspectAfter
		}
		name = p.name
		n.publishLocked()
	}
	n.mu.Unlock()
	if down {
		n.log.Warn("peer down", "peer", name, "addr", addr, "cause", "unreachable")
	}
}

// HandleControl serves one control-plane request; wire it to the TCP
// endpoint with core.TCPServer.SetControlHandler.
func (n *Node) HandleControl(payload []byte) ([]byte, error) {
	var env Envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return nil, fmt.Errorf("cplane: decode control payload: %w", err)
	}
	switch env.Type {
	case ControlGossip:
		if env.Gossip == nil {
			return nil, errors.New("cplane: gossip payload missing")
		}
		n.Observe(env.Gossip)
		return json.Marshal(n.localGossip())
	case ControlStatus:
		return json.Marshal(n.Status())
	default:
		return nil, fmt.Errorf("cplane: unknown control type %q", env.Type)
	}
}

// Observe ingests a peer's gossip received outside this node's own
// heartbeats (i.e. the peer heartbeated us). An unknown sender that
// advertises an address is admitted and heartbeated from now on — this
// is how membership propagates: joining one node joins the cluster.
func (n *Node) Observe(g *Gossip) {
	if g.Addr == "" || g.Addr == n.cfg.Addr {
		return // observers are never admitted to the routing set
	}
	if p := n.admit(g.Addr); p != nil {
		n.heard(p, g)
		n.adoptKernels(g.Kernels)
		n.joinPeers(g.Peers)
		go n.beat(p)
		return
	}
	n.mu.Lock()
	p := n.peers[g.Addr]
	n.mu.Unlock()
	if p == nil {
		return // closed
	}
	n.heard(p, g)
	n.adoptKernels(g.Kernels)
	n.joinPeers(g.Peers)
}

// noteKernel optimistically adds kernel to the membership row for addr
// after a successful wire registration, so routing can use the kernel
// immediately instead of waiting for the member's next heartbeat to
// confirm it (which it will: gossip overwrites the row).
func (n *Node) noteKernel(addr, kernel string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p := n.peers[addr]; p != nil && !slices.Contains(p.last.Kernels, kernel) {
		// A new array: the published view holds the old one.
		p.last.Kernels = append(slices.Clip(p.last.Kernels), kernel)
		n.publishLocked()
	}
}

// joinPeers admits gossiped member addresses this node has not met,
// converging membership transitively.
func (n *Node) joinPeers(addrs []string) {
	for _, addr := range addrs {
		n.Join(addr)
	}
}

// adoptKernels registers gossiped kernels the local server is missing,
// resolving them from the kernel library by name — the same path wire
// registrations take. Kernels the library does not know or the host has
// no device for are skipped; the propagation is best-effort.
func (n *Node) adoptKernels(names []string) {
	if n.cfg.Local == nil || len(names) == 0 {
		return
	}
	have := make(map[string]bool)
	for _, name := range n.cfg.Local.Kernels() {
		have[name] = true
	}
	for _, name := range names {
		if have[name] {
			continue
		}
		k, err := kernels.ByName(name)
		if err != nil {
			continue
		}
		if err := n.cfg.Local.Register(k); err == nil {
			n.log.Info("kernel adopted from cluster gossip", "kernel", name)
		}
	}
}

// localGossip builds the node's current health summary.
func (n *Node) localGossip() *Gossip {
	g := &Gossip{Node: n.cfg.Name, Addr: n.cfg.Addr}
	n.mu.Lock()
	n.seq++
	g.Seq = n.seq
	for addr := range n.peers {
		g.Peers = append(g.Peers, addr)
	}
	n.mu.Unlock()
	sort.Strings(g.Peers)
	if n.cfg.Local == nil {
		return g
	}
	h := n.cfg.Local.Health()
	g.Draining = h.Draining || h.Closed
	g.InFlight = h.InFlight
	g.Kernels = h.Kernels
	g.Tenants = h.Tenants
	for kind, kh := range h.Kinds {
		if kh.Eligible > 0 {
			if g.Eligible == nil {
				g.Eligible = make(map[string]int)
			}
			g.Eligible[kind] = kh.Eligible
		}
		if kh.OpenBreakers > 0 {
			if g.OpenBreakers == nil {
				g.OpenBreakers = make(map[string]int)
			}
			g.OpenBreakers[kind] = kh.OpenBreakers
		}
	}
	// Shed rate over the modeled window since this node's previous
	// summary.
	now := n.clock.Now()
	n.mu.Lock()
	if !n.lastBeat.IsZero() && now.After(n.lastBeat) && h.Shed >= n.lastShed {
		g.ShedRate = float64(h.Shed-n.lastShed) / now.Sub(n.lastBeat).Seconds()
	}
	n.lastShed, n.lastBeat = h.Shed, now
	n.mu.Unlock()
	return g
}

// Members returns the node's membership view: the local node first,
// then peers sorted by name (address as tiebreak).
func (n *Node) Members() []Member {
	peers := n.peerView()
	members := make([]Member, 0, len(peers)+1)
	if self := n.selfMember(); self != nil {
		members = append(members, *self)
	}
	return append(members, peers...)
}

// peerView returns the published peer rows. The caller must not write
// to the slice or anything its rows point to.
func (n *Node) peerView() []Member {
	if v := n.view.Load(); v != nil {
		return *v
	}
	return nil
}

// publishLocked rebuilds the peer view from the peer records. The
// caller holds n.mu, so publishes are ordered with the row changes.
func (n *Node) publishLocked() {
	rows := make([]Member, 0, len(n.peers))
	for _, p := range n.peers {
		rows = append(rows, Member{
			Node:         p.name,
			Addr:         p.addr,
			Alive:        p.alive,
			Draining:     p.last.Draining,
			InFlight:     p.last.InFlight,
			ShedRate:     p.last.ShedRate,
			Eligible:     p.last.Eligible,
			OpenBreakers: p.last.OpenBreakers,
			Kernels:      p.last.Kernels,
			Tenants:      p.last.Tenants,
			Downs:        p.downs,
			Ups:          p.ups,
			Beats:        p.beats,
		})
	}
	slices.SortFunc(rows, func(a, b Member) int {
		return cmp.Or(strings.Compare(a.Node, b.Node), strings.Compare(a.Addr, b.Addr))
	})
	n.view.Store(&rows)
	if n.published != nil {
		close(n.published)
		n.published = nil
	}
}

// selfMember builds the local node's own membership row, or nil for
// observers (which are not part of the routing set).
func (n *Node) selfMember() *Member {
	if n.cfg.Local == nil {
		return nil
	}
	h := n.cfg.Local.Health()
	m := &Member{
		Node:     n.cfg.Name,
		Addr:     n.cfg.Addr,
		Self:     true,
		Alive:    true,
		Draining: h.Draining || h.Closed,
		InFlight: h.InFlight,
		Kernels:  h.Kernels,
		Tenants:  h.Tenants,
	}
	for kind, kh := range h.Kinds {
		if kh.Eligible > 0 {
			if m.Eligible == nil {
				m.Eligible = make(map[string]int)
			}
			m.Eligible[kind] = kh.Eligible
		}
		if kh.OpenBreakers > 0 {
			if m.OpenBreakers == nil {
				m.OpenBreakers = make(map[string]int)
			}
			m.OpenBreakers[kind] = kh.OpenBreakers
		}
	}
	return m
}

// Status returns the node's membership view for kaasctl cluster status.
func (n *Node) Status() Status {
	return Status{Node: n.cfg.Name, Members: n.Members()}
}

// discardHandler is a slog.Handler that drops every record, used when no
// logger is configured.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// WaitMembers blocks until at least want peers are alive in the node's
// membership view or ctx expires. Harnesses use it to let the first
// heartbeat round complete before offering load. It wakes on each
// publish of the view, not on a timer.
func (n *Node) WaitMembers(ctx context.Context, want int) error {
	for {
		n.mu.Lock()
		if n.published == nil {
			n.published = make(chan struct{})
		}
		published := n.published
		n.mu.Unlock()
		alive := 0
		for _, m := range n.peerView() {
			if m.Alive {
				alive++
			}
		}
		if alive >= want {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cplane: %d of %d peers alive: %w", alive, want, ctx.Err())
		case <-published:
		}
	}
}
