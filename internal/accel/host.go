package accel

import (
	"fmt"

	"kaas/internal/vclock"
)

// Host is a machine that exposes a set of accelerator devices plus its own
// CPU (modeled as a device so CPU-only kernels flow through the same cost
// model).
type Host struct {
	name    string
	clock   vclock.Clock
	cpu     *Device
	devices []*Device
	byKind  map[Kind][]*Device
}

// NewHost builds a host with the given CPU profile and one device per
// accelerator profile. Device IDs are "<name>/<kind><index>".
func NewHost(clock vclock.Clock, name string, cpu Profile, accels ...Profile) (*Host, error) {
	cpuDev, err := NewDevice(clock, fmt.Sprintf("%s/cpu0", name), cpu)
	if err != nil {
		return nil, fmt.Errorf("host %s: %w", name, err)
	}
	h := &Host{
		name:    name,
		clock:   clock,
		cpu:     cpuDev,
		devices: make([]*Device, 0, len(accels)),
	}
	counts := make(map[Kind]int, 4)
	for _, p := range accels {
		idx := counts[p.Kind]
		counts[p.Kind]++
		id := fmt.Sprintf("%s/%s%d", name, p.Kind, idx)
		dev, err := NewDevice(clock, id, p)
		if err != nil {
			h.Close()
			return nil, fmt.Errorf("host %s: %w", name, err)
		}
		h.devices = append(h.devices, dev)
	}
	// The device set is immutable after construction, so the per-kind
	// views are built once: DevicesByKind sits on the per-invocation
	// placement path.
	h.byKind = make(map[Kind][]*Device, 4)
	for _, d := range h.devices {
		if d.Kind() == CPU {
			// Kind CPU always resolves to the host CPU device alone.
			continue
		}
		h.byKind[d.Kind()] = append(h.byKind[d.Kind()], d)
	}
	h.byKind[CPU] = []*Device{h.cpu}
	return h, nil
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Clock returns the host's time source.
func (h *Host) Clock() vclock.Clock { return h.clock }

// CPU returns the host CPU device.
func (h *Host) CPU() *Device { return h.cpu }

// Devices returns all accelerator devices (excluding the CPU).
func (h *Host) Devices() []*Device {
	out := make([]*Device, len(h.devices))
	copy(out, h.devices)
	return out
}

// DevicesByKind returns the accelerator devices of the given kind, or the
// CPU device for Kind CPU. The returned slice is a shared read-only view;
// callers must not modify it.
func (h *Host) DevicesByKind(kind Kind) []*Device {
	return h.byKind[kind]
}

// Device returns the device with the given ID, if present.
func (h *Host) Device(id string) (*Device, bool) {
	if h.cpu.ID() == id {
		return h.cpu, true
	}
	for _, d := range h.devices {
		if d.ID() == id {
			return d, true
		}
	}
	return nil, false
}

// Close shuts down every device on the host.
func (h *Host) Close() {
	if h.cpu != nil {
		h.cpu.Close()
	}
	for _, d := range h.devices {
		d.Close()
	}
}
