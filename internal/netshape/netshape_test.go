package netshape

import (
	"testing"
	"time"

	"kaas/internal/vclock"
)

func TestNewLinkValidation(t *testing.T) {
	clock := vclock.Scaled(1000)
	if _, err := NewLink(clock, -time.Second, 1e6); err == nil {
		t.Error("negative rtt succeeded")
	}
	if _, err := NewLink(clock, time.Millisecond, 0); err == nil {
		t.Error("zero bandwidth succeeded")
	}
}

func TestTransferDelayComputation(t *testing.T) {
	clock := vclock.Scaled(1000)
	l, err := NewLink(clock, 10*time.Millisecond, 1e6) // 1 MB/s
	if err != nil {
		t.Fatalf("NewLink: %v", err)
	}
	// 1e6 bytes at 1 MB/s = 1s serialization + 5ms half-RTT.
	got := l.TransferDelay(1e6)
	want := time.Second + 5*time.Millisecond
	if got != want {
		t.Errorf("TransferDelay = %v, want %v", got, want)
	}
	if got := l.TransferDelay(0); got != 5*time.Millisecond {
		t.Errorf("TransferDelay(0) = %v, want 5ms", got)
	}
}

func TestNilLinkIsNoOp(t *testing.T) {
	var l *Link
	if d := l.TransferDelay(1e9); d != 0 {
		t.Errorf("nil TransferDelay = %v, want 0", d)
	}
	if d := l.Transfer(1e9); d != 0 {
		t.Errorf("nil Transfer = %v, want 0", d)
	}
	if l.RTT() != 0 {
		t.Errorf("nil RTT = %v, want 0", l.RTT())
	}
}

func TestTransferSleepsModeledTime(t *testing.T) {
	clock := vclock.Scaled(1000)
	l := GigabitEthernet(clock)
	start := clock.Now()
	d := l.Transfer(125e6) // 1s at 1Gbps + 75µs
	elapsed := clock.Now().Sub(start)
	if d < time.Second {
		t.Errorf("returned delay %v, want >= 1s", d)
	}
	if elapsed < 900*time.Millisecond {
		t.Errorf("modeled sleep %v, want ~1s", elapsed)
	}
}

func TestGigabitEthernetParameters(t *testing.T) {
	l := GigabitEthernet(vclock.Scaled(1000))
	if l.RTT() != 150*time.Microsecond {
		t.Errorf("RTT = %v, want 150µs", l.RTT())
	}
}

func TestRDMAFasterThanEthernet(t *testing.T) {
	clock := vclock.Scaled(1000)
	eth := GigabitEthernet(clock)
	rdma := RDMA(clock)
	const payload = 1 << 20
	if rdma.TransferDelay(payload) >= eth.TransferDelay(payload) {
		t.Errorf("RDMA (%v) not faster than Ethernet (%v)",
			rdma.TransferDelay(payload), eth.TransferDelay(payload))
	}
	if rdma.RTT() >= eth.RTT() {
		t.Errorf("RDMA RTT %v not below Ethernet %v", rdma.RTT(), eth.RTT())
	}
}

func TestProfileValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Profile
		ok   bool
	}{
		{"valid", Profile{RTT: time.Millisecond, BandwidthBps: 1e6}, true},
		{"zero rtt ok", Profile{BandwidthBps: 1e6}, true},
		{"negative rtt", Profile{RTT: -1, BandwidthBps: 1e6}, false},
		{"zero bandwidth", Profile{RTT: time.Millisecond}, false},
		{"negative loss", Profile{BandwidthBps: 1e6, Loss: -0.1}, false},
		{"certain loss", Profile{BandwidthBps: 1e6, Loss: 1}, false},
		{"lossy", Profile{RTT: time.Millisecond, BandwidthBps: 1e6, Loss: 0.5}, true},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestLossChargesRetransmissionDelay(t *testing.T) {
	clock := vclock.Scaled(1000)
	clean, err := NewLinkProfile(clock, Profile{RTT: 10 * time.Millisecond, BandwidthBps: 1e6})
	if err != nil {
		t.Fatalf("NewLinkProfile: %v", err)
	}
	lossy, err := NewLinkProfile(clock, Profile{RTT: 10 * time.Millisecond, BandwidthBps: 1e6, Loss: 0.5})
	if err != nil {
		t.Fatalf("NewLinkProfile: %v", err)
	}
	// Loss 0.5 pays one expected extra round trip per transfer.
	diff := lossy.TransferDelay(1000) - clean.TransferDelay(1000)
	if diff != 10*time.Millisecond {
		t.Errorf("loss penalty = %v, want one RTT (10ms)", diff)
	}
	// The penalty is deterministic: same call, same delay.
	if lossy.TransferDelay(1000) != lossy.TransferDelay(1000) {
		t.Error("lossy TransferDelay not deterministic")
	}
}

func TestSetProfileSwapsMidRun(t *testing.T) {
	clock := vclock.Scaled(1000)
	l := GigabitEthernet(clock)
	fast := l.TransferDelay(125e3)
	degraded := Profile{RTT: 80 * time.Millisecond, BandwidthBps: 1.25e6, Loss: 0.02}
	if err := l.SetProfile(degraded); err != nil {
		t.Fatalf("SetProfile: %v", err)
	}
	if got := l.Profile(); got != degraded {
		t.Errorf("Profile() = %+v, want %+v", got, degraded)
	}
	if slow := l.TransferDelay(125e3); slow <= fast {
		t.Errorf("degraded delay %v not above clean delay %v", slow, fast)
	}
	if err := l.SetProfile(Profile{}); err == nil {
		t.Error("SetProfile accepted an invalid profile")
	}
	if got := l.Profile(); got != degraded {
		t.Errorf("invalid SetProfile mutated the link: %+v", got)
	}
}

func TestNilLinkProfileOps(t *testing.T) {
	var l *Link
	if p := l.Profile(); p != (Profile{}) {
		t.Errorf("nil Profile() = %+v", p)
	}
	if err := l.SetProfile(Profile{}); err != nil {
		t.Errorf("nil SetProfile errored: %v", err)
	}
}
