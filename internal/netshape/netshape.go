// Package netshape models network links between KaaS clients and servers.
// The remote-invocation experiment (§5.3) runs client and server on
// different machines joined by 1 Gbps Ethernet with 0.15 ms RTT; this
// package injects that link's latency and serialization delay into the
// modeled timeline so loopback deployments measure like remote ones.
//
// Links are described by Profiles (round-trip time, bandwidth, loss),
// which compose: stacking a datacenter fabric profile on a degraded WAN
// hop yields one effective link. A Link's profile can be swapped at
// runtime with SetProfile, which is how the scenario harness
// (internal/scenario) degrades and restores a link mid-run.
package netshape

import (
	"fmt"
	"sync"
	"time"

	"kaas/internal/vclock"
)

// Profile describes one network link's characteristics. All values are
// in modeled time.
type Profile struct {
	// RTT is the round-trip time.
	RTT time.Duration
	// BandwidthBps is the link bandwidth in bytes per modeled second.
	BandwidthBps float64
	// Loss is the packet loss fraction in [0, 1). Loss is charged as a
	// deterministic expected retransmission delay — each transfer pays
	// Loss/(1-Loss) extra round trips — so a lossy link slows the
	// modeled timeline without introducing per-transfer randomness.
	// Reproducibility rules out a hidden RNG here: the same trace over
	// the same profile must always take the same modeled time.
	Loss float64
}

// Validate reports profile problems.
func (p Profile) Validate() error {
	if p.RTT < 0 {
		return fmt.Errorf("netshape: negative rtt %v", p.RTT)
	}
	if p.BandwidthBps <= 0 {
		return fmt.Errorf("netshape: bandwidth must be positive, got %v", p.BandwidthBps)
	}
	if p.Loss < 0 || p.Loss >= 1 {
		return fmt.Errorf("netshape: loss must be in [0, 1), got %v", p.Loss)
	}
	return nil
}

// lossPenalty is the expected retransmission delay added to one transfer.
func (p Profile) lossPenalty() time.Duration {
	if p.Loss <= 0 {
		return 0
	}
	return time.Duration(p.Loss / (1 - p.Loss) * float64(p.RTT))
}

// Link describes one direction-symmetric network link. Its profile may
// be swapped at runtime (SetProfile), so harnesses can degrade a link
// mid-experiment; a nil *Link adds no delay.
type Link struct {
	clock vclock.Clock

	mu      sync.Mutex
	profile Profile
}

// NewLink creates a link with the given round-trip time and bandwidth in
// bytes per second. A nil link (see the nil-receiver behavior of
// Transfer) adds no delay.
func NewLink(clock vclock.Clock, rtt time.Duration, bandwidthBps float64) (*Link, error) {
	return NewLinkProfile(clock, Profile{RTT: rtt, BandwidthBps: bandwidthBps})
}

// NewLinkProfile creates a link from a full profile.
func NewLinkProfile(clock vclock.Clock, p Profile) (*Link, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Link{clock: clock, profile: p}, nil
}

// GigabitEthernet returns the link of the paper's remote testbed:
// 1 Gbps with 0.15 ms RTT.
func GigabitEthernet(clock vclock.Clock) *Link {
	l, err := NewLink(clock, 150*time.Microsecond, 125e6)
	if err != nil {
		// Static parameters; cannot fail.
		panic(err)
	}
	return l
}

// RDMA returns a link modeling the RDMA transport the paper's §6 proposes
// for reducing invocation overhead: 100 Gbps with ~4 µs round trips.
func RDMA(clock vclock.Clock) *Link {
	l, err := NewLink(clock, 4*time.Microsecond, 12.5e9)
	if err != nil {
		// Static parameters; cannot fail.
		panic(err)
	}
	return l
}

// Profile returns the link's current profile (zero for nil links).
func (l *Link) Profile() Profile {
	if l == nil {
		return Profile{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.profile
}

// SetProfile swaps the link's profile at runtime. In-flight transfers
// finish under the profile they started with; subsequent transfers use
// the new one. It is a no-op on nil links.
func (l *Link) SetProfile(p Profile) error {
	if l == nil {
		return nil
	}
	if err := p.Validate(); err != nil {
		return err
	}
	l.mu.Lock()
	l.profile = p
	l.mu.Unlock()
	return nil
}

// TransferDelay returns the one-way delay of sending the given number of
// bytes: half the RTT, serialization time, and the expected
// retransmission penalty of a lossy profile.
func (l *Link) TransferDelay(bytes int64) time.Duration {
	if l == nil {
		return 0
	}
	p := l.Profile()
	ser := time.Duration(float64(bytes) / p.BandwidthBps * float64(time.Second))
	return p.RTT/2 + ser + p.lossPenalty()
}

// Transfer sleeps for the one-way transfer delay of the given size.
// It is a no-op on a nil link, so "no shaping" callers can pass nil.
func (l *Link) Transfer(bytes int64) time.Duration {
	if l == nil {
		return 0
	}
	d := l.TransferDelay(bytes)
	l.clock.Sleep(d)
	return d
}

// RTT returns the configured round-trip time (0 for nil links).
func (l *Link) RTT() time.Duration {
	if l == nil {
		return 0
	}
	return l.Profile().RTT
}
