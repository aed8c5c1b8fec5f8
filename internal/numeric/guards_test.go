package numeric

import (
	"errors"
	"testing"
)

// TestBlockPlanesFor pins the checked raw-plane accessor: the stated
// shape must match the block exactly, and a mismatch is ErrDimension
// with no planes handed out.
func TestBlockPlanesFor(t *testing.T) {
	b := NewBlock(5, 3)
	b.Set(2, 1, 4+2i)

	re, im, err := b.PlanesFor(5, 3)
	if err != nil {
		t.Fatalf("matching shape: %v", err)
	}
	// The returned planes alias the block under the i*cols+j contract.
	if re[2*3+1] != 4 || im[2*3+1] != 2 {
		t.Fatalf("planes at (2,1): %g+%gi, want 4+2i", re[2*3+1], im[2*3+1])
	}
	re[0*3+2], im[0*3+2] = -1, 7
	if got := b.At(0, 2); got != complex(-1, 7) {
		t.Fatalf("write through plane not visible: %v", got)
	}

	for _, tc := range []struct{ rows, cols int }{
		{5, 4}, {4, 3}, {3, 5}, {0, 0}, {15, 1},
	} {
		re, im, err := b.PlanesFor(tc.rows, tc.cols)
		if !errors.Is(err, ErrDimension) {
			t.Errorf("PlanesFor(%d, %d): err = %v, want ErrDimension", tc.rows, tc.cols, err)
		}
		if re != nil || im != nil {
			t.Errorf("PlanesFor(%d, %d): planes returned on mismatch", tc.rows, tc.cols)
		}
	}

	// Reset re-validates against the new shape: the old one stops
	// matching, the new one works.
	b.Reset(2, 7)
	if _, _, err := b.PlanesFor(5, 3); !errors.Is(err, ErrDimension) {
		t.Errorf("stale shape after Reset: err = %v, want ErrDimension", err)
	}
	if _, _, err := b.PlanesFor(2, 7); err != nil {
		t.Errorf("fresh shape after Reset: %v", err)
	}
}
