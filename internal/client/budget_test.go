package client

import "testing"

func TestRetryBudgetBucketMath(t *testing.T) {
	b := NewRetryBudget(3, 0.5)
	for i := 0; i < 3; i++ {
		if !b.Spend() {
			t.Fatalf("Spend %d on a full bucket failed", i)
		}
	}
	if b.Spend() {
		t.Fatal("Spend on an empty bucket succeeded")
	}
	if b.Tokens() != 0 {
		t.Fatalf("Tokens = %v after draining, want 0", b.Tokens())
	}
	if b.Spent() != 3 || b.Exhausted() != 1 {
		t.Fatalf("Spent/Exhausted = %d/%d, want 3/1", b.Spent(), b.Exhausted())
	}

	// Two successes credit one whole token back — exactly one retry.
	b.Credit()
	if b.Spend() {
		t.Fatal("Spend succeeded on a fractional token")
	}
	b.Credit()
	if !b.Spend() {
		t.Fatal("Spend failed after two credits refilled one token")
	}

	// Credits never overflow the capacity.
	for i := 0; i < 100; i++ {
		b.Credit()
	}
	if b.Tokens() != 3 {
		t.Fatalf("Tokens = %v after overcredit, want capacity 3", b.Tokens())
	}
}

func TestRetryBudgetDefaults(t *testing.T) {
	b := NewRetryBudget(0, 0)
	if b.Tokens() != DefaultRetryBudgetCapacity {
		t.Fatalf("default capacity = %v, want %v", b.Tokens(), float64(DefaultRetryBudgetCapacity))
	}
	b.Spend()
	b.Credit()
	want := DefaultRetryBudgetCapacity - 1 + DefaultRetryBudgetRatio
	if got := b.Tokens(); got != want {
		t.Fatalf("tokens after one spend and one credit = %v, want %v", got, want)
	}
}
