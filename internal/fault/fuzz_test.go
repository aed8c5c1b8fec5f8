package fault

import (
	"testing"

	"repro/internal/circuits"
)

// FuzzParseSetID: ParseSetID never panics, and the ID of every set it
// accepts parses back to a set with the same ID. The corpus is seeded
// with every built-in CUT's paper-universe IDs and a sample of its pairs.
func FuzzParseSetID(f *testing.F) {
	f.Add("golden")
	for _, cut := range circuits.All() {
		u, err := PaperUniverse(cut.Passives)
		if err != nil {
			f.Fatal(err)
		}
		for _, flt := range u.Faults() {
			f.Add(flt.ID())
		}
		pairs, err := u.Pairs(nil, 0)
		if err != nil {
			continue // a single-component CUT has no pairs
		}
		for i := 0; i < len(pairs); i += 17 {
			f.Add(pairs[i].ID())
		}
	}
	f.Fuzz(func(t *testing.T, id string) {
		s, err := ParseSetID(id)
		if err != nil {
			return
		}
		canon := s.ID()
		again, err := ParseSetID(canon)
		if err != nil {
			t.Fatalf("ParseSetID(%q) accepted, but its ID %q does not parse: %v", id, canon, err)
		}
		if again.ID() != canon {
			t.Fatalf("ParseSetID(%q): ID %q re-parses to %q", id, canon, again.ID())
		}
	})
}
