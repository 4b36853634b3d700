package qsim

import (
	"fmt"
	"math"
	"math/cmplx"
)

// S applies the phase gate (√Z) to qubit q.
func (s *State) S(q int) error {
	return s.apply1Q(q, 1, 0, 0, complex(0, 1))
}

// T applies the π/8 gate (√S) to qubit q.
func (s *State) T(q int) error {
	return s.apply1Q(q, 1, 0, 0, cmplx.Exp(complex(0, 0.7853981633974483)))
}

// RX applies a rotation around X by angle theta to qubit q.
func (s *State) RX(q int, theta float64) error {
	cos := complex(math.Cos(theta/2), 0)
	isin := complex(0, -math.Sin(theta/2))
	return s.apply1Q(q, cos, isin, isin, cos)
}

// SWAP exchanges the states of qubits a and b.
func (s *State) SWAP(a, b int) error {
	if err := s.checkQubit(a); err != nil {
		return err
	}
	if err := s.checkQubit(b); err != nil {
		return err
	}
	if a == b {
		return fmt.Errorf("qsim: SWAP with identical qubits (%d)", a)
	}
	abit := 1 << uint(a)
	bbit := 1 << uint(b)
	for i := 0; i < len(s.amp); i++ {
		// Swap amplitudes where qubit a is set and b is clear.
		if i&abit != 0 && i&bbit == 0 {
			j := (i &^ abit) | bbit
			s.amp[i], s.amp[j] = s.amp[j], s.amp[i]
		}
	}
	return nil
}

// CZ applies a controlled-Z between qubits a and b (symmetric).
func (s *State) CZ(a, b int) error {
	if err := s.checkQubit(a); err != nil {
		return err
	}
	if err := s.checkQubit(b); err != nil {
		return err
	}
	if a == b {
		return fmt.Errorf("qsim: CZ with identical qubits (%d)", a)
	}
	mask := (1 << uint(a)) | (1 << uint(b))
	for i := 0; i < len(s.amp); i++ {
		if i&mask == mask {
			s.amp[i] = -s.amp[i]
		}
	}
	return nil
}
