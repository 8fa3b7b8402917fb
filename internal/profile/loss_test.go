package profile

import "testing"

// TestReverseLoss: reversal retracts exactly what was recorded, clamps
// at zero instead of underflowing, and re-centres the estimators (loss
// rate back to 0 once everything recorded is reversed).
func TestReverseLoss(t *testing.T) {
	db := NewDB(16, 0, 4)
	db.RecordLoss(10)
	db.reverseLoss(4)
	if got := db.Lost(); got != 6 {
		t.Fatalf("lost %d after reversing 4 of 10, want 6", got)
	}
	db.reverseLoss(100)
	if got := db.Lost(); got != 0 {
		t.Fatalf("lost %d after over-reversal, want 0 (clamped)", got)
	}
	if got := db.LossRate(); got != 0 {
		t.Fatalf("loss rate %g after full reversal, want 0", got)
	}
}

func TestSafeDBReverseLoss(t *testing.T) {
	db := NewSafeDBWith(NewDB(16, 0, 4), SketchConfig{})
	db.RecordLoss(8)
	db.ReverseLoss(8)
	if got := db.CountersSnapshot().Lost; got != 0 {
		t.Fatalf("lost %d, want 0", got)
	}
}
