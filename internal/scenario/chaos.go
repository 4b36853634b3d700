package scenario

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"kaas/internal/faults"
	"kaas/internal/netshape"
	"kaas/internal/vclock"
)

// Chaos composes the named fault injectors a scenario runs alongside its
// trace. Every injector is scripted — fixed cycle counts and modeled-time
// offsets, no wall-clock loops — so the number of injected transitions is
// a pure function of the spec and shows up identically in every run.
//
// Injectors anchor to the run two ways, composable per spec: a modeled
// At offset, and AfterEvent — wait until the replay has issued at least
// that many invocations. Event anchoring is how wire-transport scenarios
// stay aligned with traffic: wire RPC wall latency is not modeled, so at
// high time scales a purely modeled offset can elapse before any traffic
// flows; "after the Nth invocation" cannot.
type Chaos struct {
	// Flaps fail/repair devices on the scripted schedules.
	Flaps []FlapSpec `json:"flaps,omitempty"`
	// Link degrades the client link mid-run (wire transport with a
	// BaseLink only).
	Link *LinkSpec `json:"link,omitempty"`
	// ConnKills severs live client connections (wire transport only).
	ConnKills *ConnKillSpec `json:"conn_kills,omitempty"`
	// Drain gracefully drains the server mid-load (inproc transport).
	Drain *DrainSpec `json:"drain,omitempty"`
	// HostDown shuts one cluster host down mid-load (nodes transport).
	HostDown *HostDownSpec `json:"host_down,omitempty"`
	// NodeKill abruptly kills one cluster node mid-load (nodes
	// transport): no drain, no goodbye — connections die mid-request,
	// the way a real node death looks to its peers.
	NodeKill *NodeKillSpec `json:"node_kill,omitempty"`
}

// Transitions returns the total scripted fault-transition count the
// chaos drives when it runs to completion: device fail/repair pairs, the
// link degrade/restore pair, each connection kill, and each shutdown.
// It is printed on the deterministic output surface, so a chaos schedule
// that drifted (lost a goroutine, skipped a cycle) breaks reproducibility
// loudly instead of silently weakening the scenario.
func (c Chaos) Transitions() int {
	n := 0
	for _, f := range c.Flaps {
		n += f.Schedule.Transitions()
	}
	if c.Link != nil {
		n += 2 // degrade + restore
	}
	if c.ConnKills != nil {
		n += c.ConnKills.Kills
	}
	if c.Drain != nil {
		n++
	}
	if c.HostDown != nil {
		n++
	}
	if c.NodeKill != nil {
		n++
	}
	return n
}

// FlapSpec flaps one device by host-device index.
type FlapSpec struct {
	// Device indexes into the host's accelerator devices.
	Device int `json:"device"`
	// AfterEvent defers the schedule until the replay has issued at least
	// this many invocations (see Chaos.AfterEvent semantics).
	AfterEvent int `json:"after_event,omitempty"`
	// DownEvents/UpEvents, when DownEvents > 0, switch the flap windows
	// from the schedule's modeled durations to event counts: the device
	// stays failed while DownEvents invocations are issued, then healthy
	// for UpEvents, for Schedule.Cycles cycles. Wire-transport scenarios
	// need this — their traffic progresses on unmodeled wall time, so only
	// event-counted windows are guaranteed to overlap in-flight work.
	DownEvents int `json:"down_events,omitempty"`
	UpEvents   int `json:"up_events,omitempty"`
	// Schedule scripts the fail/repair cycles (modeled-time mode), or just
	// the cycle count (event mode).
	Schedule faults.FlapSchedule `json:"schedule"`
}

// LinkSpec degrades the client link to the Degraded profile At after the
// run starts and restores the original profile Duration later — the
// "network turns bad mid-run" injector for a wire transport with a
// BaseLink.
type LinkSpec struct {
	AfterEvent int              `json:"after_event,omitempty"`
	At         time.Duration    `json:"at"`
	Duration   time.Duration    `json:"duration"`
	Degraded   netshape.Profile `json:"degraded"`
}

// ConnKillSpec severs a random live client connection Kills times,
// starting At and then Every apart (modeled time). Which connection dies
// is drawn from a PRNG sub-seeded from the scenario seed, so the kill
// sequence is reproducible.
type ConnKillSpec struct {
	AfterEvent int           `json:"after_event,omitempty"`
	At         time.Duration `json:"at"`
	Every      time.Duration `json:"every"`
	Kills      int           `json:"kills"`
}

// DrainSpec gracefully drains the server At after the run starts,
// allowing Timeout (wall time) for in-flight work to finish.
type DrainSpec struct {
	AfterEvent int           `json:"after_event,omitempty"`
	At         time.Duration `json:"at"`
	Timeout    time.Duration `json:"timeout"`
}

// HostDownSpec shuts down cluster host Host At after the run starts,
// allowing Timeout (wall time) for its in-flight work to finish. The
// cluster's failover routing should make the loss invisible to clients.
type HostDownSpec struct {
	Host       int           `json:"host"`
	AfterEvent int           `json:"after_event,omitempty"`
	At         time.Duration `json:"at"`
	Timeout    time.Duration `json:"timeout"`
}

// NodeKillSpec kills cluster node Node abruptly once the replay has
// issued AfterEvent invocations (and At of modeled time has passed).
// Unlike HostDownSpec there is no drain and no timeout: the node's
// connections are cut with requests in flight, and the control plane
// must detect the death and re-route around it.
type NodeKillSpec struct {
	Node       int           `json:"node"`
	AfterEvent int           `json:"after_event,omitempty"`
	At         time.Duration `json:"at,omitempty"`
}

// chaosEnv is what the injectors act on; the transport setup in Run
// fills in whichever targets exist for the chosen transport.
type chaosEnv struct {
	clock vclock.Clock
	// devices are the flappable host devices (nil for nodes runs).
	devices []faults.FailRepairer
	// link is the wire client's modeled link (nil without a BaseLink).
	link *netshape.Link
	// listener is the wire transport's fault-injecting listener.
	listener *faults.Listener
	// drain gracefully drains the serving platform.
	drain func(context.Context) error
	// hostDown shuts down one cluster host.
	hostDown func(ctx context.Context, host int) error
	// nodeKill abruptly kills one cluster node (nodes transport).
	nodeKill func(node int) error
	// issued reports how many invocations the replay has dispatched so
	// far — the anchor for AfterEvent triggers.
	issued func() int
}

// chaosRun drives every injector of the spec concurrently and reports
// completion through its WaitGroup; results that invariants consume
// (drain outcome, flapper transition counts) land in the returned state.
type chaosRun struct {
	wg       sync.WaitGroup
	flappers []*faults.DeviceFlapper

	mu        sync.Mutex
	drainErr  error
	drained   bool
	killsDone int
	linkSwaps int
	nodeKills int
	errs      []error
}

// start launches the chaos schedule against env. Injector goroutines end
// on their own once their scripts complete (or promptly when ctx is
// cancelled); wait for them with wg.Wait.
func (c Chaos) start(ctx context.Context, env *chaosEnv, seed int64) (*chaosRun, error) {
	run := &chaosRun{}
	for _, f := range c.Flaps {
		if f.Device < 0 || f.Device >= len(env.devices) {
			return nil, errSpec("flap device %d out of range (host has %d)", f.Device, len(env.devices))
		}
		flapper := faults.NewDeviceFlapper(env.devices[f.Device])
		run.flappers = append(run.flappers, flapper)
		schedule := f.Schedule
		run.wg.Add(1)
		spec := f
		go func() {
			defer run.wg.Done()
			if spec.DownEvents > 0 {
				mark := spec.AfterEvent
				for cyc := 0; cyc < schedule.Cycles; cyc++ {
					if !waitEvents(ctx, env, mark) {
						return
					}
					flapper.Fail()
					if !waitEvents(ctx, env, mark+spec.DownEvents) {
						flapper.Repair() // never leave the device failed
						return
					}
					flapper.Repair()
					mark += spec.DownEvents + spec.UpEvents
				}
				return
			}
			if !waitEvents(ctx, env, spec.AfterEvent) {
				return
			}
			if err := flapper.Run(ctx, env.clock, schedule); err != nil {
				run.record(err)
			}
		}()
	}
	if c.Link != nil {
		if env.link == nil {
			return nil, errSpec("link chaos needs a BaseLink")
		}
		spec := *c.Link
		if err := spec.Degraded.Validate(); err != nil {
			return nil, err
		}
		run.wg.Add(1)
		go func() {
			defer run.wg.Done()
			if !waitEvents(ctx, env, spec.AfterEvent) || !waitModeled(ctx, env.clock, spec.At) {
				return
			}
			original := env.link.Profile()
			if err := env.link.SetProfile(spec.Degraded); err != nil {
				run.record(err)
				return
			}
			run.swapLink()
			// Whatever happens (including cancellation mid-degrade),
			// leave the link as we found it.
			defer func() {
				if err := env.link.SetProfile(original); err != nil {
					run.record(err)
					return
				}
				run.swapLink()
			}()
			waitModeled(ctx, env.clock, spec.Duration)
		}()
	}
	if c.ConnKills != nil {
		if env.listener == nil {
			return nil, errSpec("conn-kill chaos needs the wire transport")
		}
		spec := *c.ConnKills
		if spec.Kills <= 0 {
			return nil, errSpec("conn-kill chaos needs a positive kill count")
		}
		rng := rand.New(rand.NewSource(seed ^ 0x636f6e6e)) // sub-seed: "conn"
		run.wg.Add(1)
		go func() {
			defer run.wg.Done()
			if !waitEvents(ctx, env, spec.AfterEvent) || !waitModeled(ctx, env.clock, spec.At) {
				return
			}
			for i := 0; i < spec.Kills; i++ {
				if i > 0 && !waitModeled(ctx, env.clock, spec.Every) {
					return
				}
				env.listener.CloseRandom(rng)
				run.mu.Lock()
				run.killsDone++
				run.mu.Unlock()
			}
		}()
	}
	if c.Drain != nil {
		if env.drain == nil {
			return nil, errSpec("drain chaos is not supported on this transport")
		}
		spec := *c.Drain
		run.wg.Add(1)
		go func() {
			defer run.wg.Done()
			if !waitEvents(ctx, env, spec.AfterEvent) || !waitModeled(ctx, env.clock, spec.At) {
				return
			}
			dctx, cancel := context.WithTimeout(ctx, spec.Timeout)
			defer cancel()
			err := env.drain(dctx)
			run.mu.Lock()
			run.drained = true
			run.drainErr = err
			run.mu.Unlock()
		}()
	}
	if c.HostDown != nil {
		if env.hostDown == nil {
			return nil, errSpec("host-down chaos needs the nodes transport")
		}
		spec := *c.HostDown
		run.wg.Add(1)
		go func() {
			defer run.wg.Done()
			if !waitEvents(ctx, env, spec.AfterEvent) || !waitModeled(ctx, env.clock, spec.At) {
				return
			}
			dctx, cancel := context.WithTimeout(ctx, spec.Timeout)
			defer cancel()
			err := env.hostDown(dctx, spec.Host)
			run.mu.Lock()
			run.drained = true
			run.drainErr = err
			run.mu.Unlock()
		}()
	}
	if c.NodeKill != nil {
		if env.nodeKill == nil {
			return nil, errSpec("node-kill chaos needs the nodes transport")
		}
		spec := *c.NodeKill
		run.wg.Add(1)
		go func() {
			defer run.wg.Done()
			if !waitEvents(ctx, env, spec.AfterEvent) || !waitModeled(ctx, env.clock, spec.At) {
				return
			}
			if err := env.nodeKill(spec.Node); err != nil {
				run.record(err)
				return
			}
			run.mu.Lock()
			run.nodeKills++
			run.mu.Unlock()
		}()
	}
	return run, nil
}

// record stores a non-nil injector error for the run report.
func (r *chaosRun) record(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	r.errs = append(r.errs, err)
	r.mu.Unlock()
}

// swapLink counts one applied link-profile swap (degrade or restore).
func (r *chaosRun) swapLink() {
	r.mu.Lock()
	r.linkSwaps++
	r.mu.Unlock()
}

// transitions sums the fault transitions the injectors actually drove.
func (r *chaosRun) transitions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.killsDone + r.linkSwaps + r.nodeKills
	for _, f := range r.flappers {
		fails, repairs := f.Cycles()
		n += fails + repairs
	}
	if r.drained {
		n++
	}
	return n
}

// waitEvents blocks until the replay has issued at least n invocations,
// returning false if ctx is done first. It polls the issued counter on a
// short wall-clock tick: the trigger anchors to real traffic progress, so
// modeled time is the wrong clock for it.
func waitEvents(ctx context.Context, env *chaosEnv, n int) bool {
	if n <= 0 {
		return true
	}
	if env.issued == nil {
		return false
	}
	for env.issued() < n {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(200 * time.Microsecond):
		}
	}
	return true
}

// waitModeled blocks for d of modeled time, returning false if ctx is
// done first (same contract as the faults package's scheduler waits).
func waitModeled(ctx context.Context, clock vclock.Clock, d time.Duration) bool {
	if ctx.Err() != nil {
		return false
	}
	if d <= 0 {
		return true
	}
	done := make(chan struct{})
	t := clock.AfterFunc(d, func() { close(done) })
	select {
	case <-ctx.Done():
		t.Stop()
		return false
	case <-done:
		return true
	}
}
