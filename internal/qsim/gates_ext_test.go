package qsim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSGatePhase(t *testing.T) {
	s, _ := NewState(1)
	_ = s.X(0)
	_ = s.S(0)
	// S|1⟩ = i|1⟩.
	if cmplx.Abs(s.Amplitudes()[1]-complex(0, 1)) > eps {
		t.Errorf("S|1⟩ = %v, want i", s.Amplitudes()[1])
	}
}

func TestTSquaredEqualsS(t *testing.T) {
	a, _ := NewState(1)
	_ = a.X(0)
	_ = a.T(0)
	_ = a.T(0)
	b, _ := NewState(1)
	_ = b.X(0)
	_ = b.S(0)
	for i := range a.Amplitudes() {
		if cmplx.Abs(a.Amplitudes()[i]-b.Amplitudes()[i]) > eps {
			t.Fatalf("T² != S at amplitude %d", i)
		}
	}
}

func TestRXFlipsAtPi(t *testing.T) {
	s, _ := NewState(1)
	_ = s.RX(0, math.Pi)
	if math.Abs(s.Probability(1)-1) > eps {
		t.Errorf("RX(pi): P(1) = %v, want 1", s.Probability(1))
	}
}

func TestSWAPExchangesQubits(t *testing.T) {
	s, _ := NewState(2)
	_ = s.X(0) // |01⟩ (qubit 0 set)
	if err := s.SWAP(0, 1); err != nil {
		t.Fatalf("SWAP: %v", err)
	}
	// Now qubit 1 set: basis index 2.
	if math.Abs(s.Probability(2)-1) > eps {
		t.Errorf("after SWAP P(10) = %v, want 1", s.Probability(2))
	}
	if err := s.SWAP(0, 0); err == nil {
		t.Error("SWAP(0,0) succeeded")
	}
	if err := s.SWAP(0, 9); err == nil {
		t.Error("SWAP out of range succeeded")
	}
}

func TestSWAPInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		s, _ := NewState(n)
		for i := 0; i < 10; i++ {
			_ = s.RY(r.Intn(n), r.Float64()*math.Pi)
		}
		before := s.Clone()
		a := r.Intn(n)
		b := r.Intn(n - 1)
		if b >= a {
			b++
		}
		_ = s.SWAP(a, b)
		_ = s.SWAP(a, b)
		for i := range s.amp {
			if cmplx.Abs(s.amp[i]-before.amp[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCZSymmetricAndConditional(t *testing.T) {
	s, _ := NewState(2)
	_ = s.H(0)
	_ = s.H(1)
	if err := s.CZ(0, 1); err != nil {
		t.Fatalf("CZ: %v", err)
	}
	// Only |11⟩ picks up the minus sign.
	if real(s.Amplitudes()[3]) > 0 {
		t.Errorf("CZ did not negate |11⟩: %v", s.Amplitudes()[3])
	}
	if real(s.Amplitudes()[0]) < 0 || real(s.Amplitudes()[1]) < 0 || real(s.Amplitudes()[2]) < 0 {
		t.Error("CZ affected non-|11⟩ amplitudes")
	}
	if err := s.CZ(1, 1); err == nil {
		t.Error("CZ(1,1) succeeded")
	}
}

func TestCZEqualsHadamardConjugatedCX(t *testing.T) {
	// CZ = (I⊗H) CX (I⊗H)
	mk := func() *State {
		s, _ := NewState(2)
		_ = s.RY(0, 0.7)
		_ = s.RY(1, 1.3)
		_ = s.CX(0, 1)
		return s
	}
	a := mk()
	_ = a.CZ(0, 1)
	b := mk()
	_ = b.H(1)
	_ = b.CX(0, 1)
	_ = b.H(1)
	for i := range a.amp {
		if cmplx.Abs(a.amp[i]-b.amp[i]) > 1e-12 {
			t.Fatalf("CZ != H·CX·H at amplitude %d: %v vs %v", i, a.amp[i], b.amp[i])
		}
	}
}

func TestExtendedGatesPreserveNorm(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3)
		s, _ := NewState(n)
		for i := 0; i < 25; i++ {
			q := r.Intn(n)
			q2 := r.Intn(n - 1)
			if q2 >= q {
				q2++
			}
			switch r.Intn(5) {
			case 0:
				_ = s.S(q)
			case 1:
				_ = s.T(q)
			case 2:
				_ = s.RX(q, r.Float64()*2*math.Pi)
			case 3:
				_ = s.SWAP(q, q2)
			case 4:
				_ = s.CZ(q, q2)
			}
		}
		return math.Abs(s.Norm()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
