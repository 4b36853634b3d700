// Package accel models hardware accelerators as simulated devices.
//
// A Device is a contended resource built from psched engines: one engine
// for the compute fabric (processor shared, the way MPS divides SMs among
// concurrent contexts) and one for the host-device interconnect. Contexts
// are the unit of sharing: acquiring a context pays the device's runtime
// initialization cost (e.g. CUDA context creation), the number of
// concurrently held contexts is capped by the device profile's Slots, and
// all work (copies, kernel launches) is charged against the device's cost
// model in modeled time through a vclock.Clock.
//
// The three sharing levels of the paper map directly onto context usage:
//
//   - time sharing: Slots=1 and a fresh context per task;
//   - space sharing (MPS): Slots=N and a fresh context per task;
//   - KaaS: Slots=N and long-lived contexts reused across invocations.
package accel

import "fmt"

// Kind identifies the accelerator architecture a device implements.
type Kind int

// Supported accelerator kinds.
const (
	CPU Kind = iota + 1
	GPU
	FPGA
	TPU
	QPU
)

// String returns the conventional short name of the kind.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	case FPGA:
		return "FPGA"
	case TPU:
		return "TPU"
	case QPU:
		return "QPU"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}
