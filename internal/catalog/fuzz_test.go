package catalog

import (
	"bytes"
	"testing"

	"paralleltape/internal/model"
)

// FuzzReadJSON checks the catalog reader never panics and only accepts
// catalogs whose layouts are contiguous and non-overlapping.
func FuzzReadJSON(f *testing.F) {
	f.Add([]byte(`{"num_objects":2,"tapes":[{"library":0,"index":0,"extents":[{"object":0,"start":0,"size":5},{"object":1,"start":5,"size":3}]}]}`))
	f.Add([]byte(`{"num_objects":1,"tapes":[{"library":0,"index":0,"extents":[{"object":0,"start":9,"size":5}]}]}`))
	f.Add([]byte(`{"num_objects":1,"tapes":[{"library":0,"index":0,"extents":[{"object":0,"start":0,"size":-5}]}]}`))
	f.Add([]byte(`nope`))
	f.Add([]byte(`{"num_objects":-1,"tapes":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted catalogs must round-trip.
		var out bytes.Buffer
		if err := c.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		c2, err := ReadJSON(&out)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if c2.numObjects != c.numObjects {
			t.Fatalf("round trip changed the object count: %d vs %d", c.numObjects, c2.numObjects)
		}
		for id := 0; id < c.numObjects; id++ {
			a, okA := c.Lookup(model.ObjectID(id))
			b, okB := c2.Lookup(model.ObjectID(id))
			if a != b || okA != okB {
				t.Fatalf("round trip moved object %d: %+v, %v vs %+v, %v", id, a, okA, b, okB)
			}
		}
	})
}
