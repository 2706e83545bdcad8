// Package catalog implements the simulator's indexing database (§6): given
// a request it resolves which cartridges hold the requested objects and at
// which byte positions, so the scheduler can plan tape mounts and the
// read order on each tape. It also validates that a placement covers every
// object exactly once — the structural contract every placement scheme
// must satisfy.
package catalog

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"paralleltape/internal/model"
	"paralleltape/internal/tape"
)

// Location records where one object lives.
type Location struct {
	Tape   tape.Key
	Extent tape.Extent
}

// Catalog is the object→location index plus per-cartridge layouts.
type Catalog struct {
	numObjects int
	locs       []Location // dense, indexed by ObjectID
	present    []bool
	layouts    map[tape.Key]*tape.Layout
}

// New returns an empty catalog sized for numObjects objects.
func New(numObjects int) *Catalog {
	return &Catalog{
		numObjects: numObjects,
		locs:       make([]Location, numObjects),
		present:    make([]bool, numObjects),
		layouts:    make(map[tape.Key]*tape.Layout),
	}
}

// AddLayout registers a finished cartridge layout, indexing every extent.
// It fails on a duplicate cartridge or an object already indexed elsewhere.
func (c *Catalog) AddLayout(l *tape.Layout) error {
	k := l.Key()
	if _, dup := c.layouts[k]; dup {
		return fmt.Errorf("catalog: cartridge %s registered twice", k)
	}
	for _, e := range l.Extents() {
		if int(e.Object) < 0 || int(e.Object) >= c.numObjects {
			return fmt.Errorf("catalog: cartridge %s stores unknown object %d", k, e.Object)
		}
		if c.present[e.Object] {
			prev := c.locs[e.Object]
			return fmt.Errorf("catalog: object %d on both %s and %s", e.Object, prev.Tape, k)
		}
		c.present[e.Object] = true
		c.locs[e.Object] = Location{Tape: k, Extent: e}
	}
	c.layouts[k] = l
	return nil
}

// Lookup returns the location of object id.
func (c *Catalog) Lookup(id model.ObjectID) (Location, bool) {
	if int(id) < 0 || int(id) >= c.numObjects || !c.present[id] {
		return Location{}, false
	}
	return c.locs[id], true
}

// Layout returns the layout of cartridge k, if registered.
func (c *Catalog) Layout(k tape.Key) (*tape.Layout, bool) {
	l, ok := c.layouts[k]
	return l, ok
}

// Tapes returns the registered cartridge keys sorted by (library, index).
func (c *Catalog) Tapes() []tape.Key {
	keys := make([]tape.Key, 0, len(c.layouts))
	for k := range c.layouts {
		keys = append(keys, k)
	}
	// Keys are unique, so (Library, Index) is a total order and the
	// unstable slices.SortFunc is deterministic.
	slices.SortFunc(keys, func(a, b tape.Key) int {
		if a.Library != b.Library {
			return a.Library - b.Library
		}
		return a.Index - b.Index
	})
	return keys
}

// NumPlaced returns how many objects have a location.
func (c *Catalog) NumPlaced() int {
	n := 0
	for _, p := range c.present {
		if p {
			n++
		}
	}
	return n
}

// TapeGroup is the portion of one request living on one cartridge.
type TapeGroup struct {
	Tape    tape.Key
	Extents []tape.Extent
	Bytes   int64
}

// GroupRequest resolves a request into per-cartridge groups, sorted by
// cartridge key (deterministic scheduling input). It fails if any object
// is unplaced.
func (c *Catalog) GroupRequest(r *model.Request) ([]TapeGroup, error) {
	byTape := make(map[tape.Key]*TapeGroup)
	for _, id := range r.Objects {
		loc, ok := c.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("catalog: request %d needs unplaced object %d", r.ID, id)
		}
		g := byTape[loc.Tape]
		if g == nil {
			g = &TapeGroup{Tape: loc.Tape}
			byTape[loc.Tape] = g
		}
		g.Extents = append(g.Extents, loc.Extent)
		g.Bytes += loc.Extent.Size
	}
	groups := make([]TapeGroup, 0, len(byTape))
	for _, g := range byTape {
		// Starts are unique per cartridge: total order, unstable sort OK.
		slices.SortFunc(g.Extents, func(a, b tape.Extent) int {
			return cmp.Compare(a.Start, b.Start)
		})
		groups = append(groups, *g)
	}
	slices.SortFunc(groups, func(a, b TapeGroup) int {
		if a.Tape.Library != b.Tape.Library {
			return a.Tape.Library - b.Tape.Library
		}
		return a.Tape.Index - b.Tape.Index
	})
	return groups, nil
}

// Grouper resolves requests into per-cartridge groups with reusable
// scratch. It produces output identical to Catalog.GroupRequest — same
// groups, same ordering — but amortizes all bookkeeping across calls: the
// per-group extent slices are carved out of one shared arena, so a caller
// that issues many requests (the simulator's Submit hot path) performs no
// steady-state allocations here. The returned slice and everything it
// references are owned by the Grouper and valid only until the next Group
// call. A Grouper is not safe for concurrent use.
type Grouper struct {
	c      *Catalog
	groups []TapeGroup
	counts []int
	gidx   []int32       // per-object group index, avoids a second map lookup
	exts   []tape.Extent // per-object extent, avoids a second catalog lookup
	arena  []tape.Extent
	keys   []uint64    // packed (slot, group index) sort keys
	sorted []TapeGroup // key-ordered permutation of groups, the returned slice

	// Dense cartridge→group index, replacing the map the old Grouper
	// hashed on every object: a cartridge key flattens to
	// Library·tapesPer + Index, slot holds its group index for the current
	// request, and stamp says which request (generation) the slot belongs
	// to — bumping gen invalidates the whole table in O(1), so there is no
	// per-request clear and no hashing on the Submit hot path.
	slots    []int32
	stamp    []uint32
	gen      uint32
	tapesPer int
}

// NewGrouper returns a Grouper over c.
func NewGrouper(c *Catalog) *Grouper {
	maxLib, maxIdx := 0, 0
	for k := range c.layouts {
		if k.Library >= maxLib {
			maxLib = k.Library + 1
		}
		if k.Index >= maxIdx {
			maxIdx = k.Index + 1
		}
	}
	n := maxLib * maxIdx
	return &Grouper{
		c:        c,
		slots:    make([]int32, n),
		stamp:    make([]uint32, n),
		tapesPer: maxIdx,
	}
}

// Group is GroupRequest with scratch reuse; see the Grouper doc comment for
// the aliasing contract.
func (gr *Grouper) Group(r *model.Request) ([]TapeGroup, error) {
	c := gr.c
	gr.gen++
	if gr.gen == 0 { // generation counter wrapped: really clear once
		clear(gr.stamp)
		gr.gen = 1
	}
	gen, slots, stamp := gr.gen, gr.slots, gr.stamp
	groups := gr.groups[:0]
	counts := gr.counts[:0]
	gidx := gr.gidx[:0]
	exts := gr.exts[:0]
	for _, id := range r.Objects {
		// Inlined Catalog.Lookup, by pointer: copying the Location struct per
		// object is measurable at Submit-hot-path call rates.
		if uint(int(id)) >= uint(len(c.locs)) || !c.present[id] {
			gr.groups, gr.counts, gr.gidx, gr.exts = groups, counts, gidx, exts
			return nil, fmt.Errorf("catalog: request %d needs unplaced object %d", r.ID, id)
		}
		loc := &c.locs[id]
		// Every placed object's key came from a registered layout, so the
		// flattened slot is always in range.
		slot := loc.Tape.Library*gr.tapesPer + loc.Tape.Index
		var gi int32
		if stamp[slot] == gen {
			gi = slots[slot]
		} else {
			gi = int32(len(groups))
			stamp[slot] = gen
			slots[slot] = gi
			groups = append(groups, TapeGroup{Tape: loc.Tape})
			counts = append(counts, 0)
		}
		counts[gi]++
		groups[gi].Bytes += loc.Extent.Size
		gidx = append(gidx, gi)
		exts = append(exts, loc.Extent)
	}
	// Carve per-group extent slices out of the shared arena at their final
	// lengths, then scatter the extents through per-group write cursors
	// (counts doubles as the cursor array) — direct indexed stores instead of
	// a slice-header read-modify-write per extent.
	if cap(gr.arena) < len(r.Objects) {
		gr.arena = make([]tape.Extent, 0, len(r.Objects))
	}
	arena := gr.arena[:0]
	off := 0
	for gi := range groups {
		n := counts[gi]
		groups[gi].Extents = arena[off : off+n : off+n]
		counts[gi] = off
		off += n
	}
	arena = arena[:off]
	for i := range exts {
		gi := gidx[i]
		arena[counts[gi]] = exts[i]
		counts[gi]++
	}
	for gi := range groups {
		// Starts are unique per cartridge, so any correct sort yields the
		// same order GroupRequest's sort.Slice did.
		sortExtentsByStart(groups[gi].Extents)
	}
	out := gr.sortGroups(groups)
	gr.groups, gr.counts, gr.gidx, gr.exts, gr.arena = groups, counts, gidx, exts, arena
	return out, nil
}

// sortGroups returns the groups ordered by (library, index). The flattened
// slot — library·tapesPer + index — preserves that lexicographic order, so
// sorting packed slot<<32|group-index words and permuting once moves 8-byte
// keys instead of shuffling 48-byte TapeGroup structs; cartridge keys are
// unique within a request, so every correct sort agrees on the result. The
// returned slice is Grouper-owned scratch, like everything else Group hands
// out.
func (gr *Grouper) sortGroups(groups []TapeGroup) []TapeGroup {
	n := len(groups)
	if n <= 1 {
		return groups
	}
	keys := gr.keys[:0]
	for gi := range groups {
		k := groups[gi].Tape
		keys = append(keys, uint64(k.Library*gr.tapesPer+k.Index)<<32|uint64(gi))
	}
	gr.keys = keys
	if n <= 32 {
		for i := 1; i < n; i++ {
			k := keys[i]
			j := i - 1
			for j >= 0 && keys[j] > k {
				keys[j+1] = keys[j]
				j--
			}
			keys[j+1] = k
		}
	} else {
		slices.Sort(keys) // slots are unique, so the packed words are too
	}
	if cap(gr.sorted) < n {
		gr.sorted = make([]TapeGroup, 0, max(n, 2*cap(gr.sorted)))
	}
	out := gr.sorted[:n]
	for i, k := range keys {
		out[i] = groups[uint32(k)]
	}
	return out
}

// sortExtentsByStart orders extents by ascending start. Starts are unique on
// one cartridge, so the order is a total order and every correct sort agrees
// on it; the direct insertion sort avoids the generic sort machinery (and
// its per-compare closure calls) for the small, nearly-sorted groups the
// Submit hot path produces, falling back to the library sort for large ones.
func sortExtentsByStart(s []tape.Extent) {
	// Groups assemble in object order, which placement schemes lay out along
	// the tape, so most groups arrive already sorted: confirm with a
	// read-only scan before dirtying any cache lines.
	sortedAlready := true
	for i := 1; i < len(s); i++ {
		if s[i].Start < s[i-1].Start {
			sortedAlready = false
			break
		}
	}
	if sortedAlready {
		return
	}
	if len(s) > 32 {
		slices.SortFunc(s, func(a, b tape.Extent) int {
			if a.Start < b.Start {
				return -1
			}
			if a.Start > b.Start {
				return 1
			}
			return 0
		})
		return
	}
	for i := 1; i < len(s); i++ {
		e := s[i]
		j := i - 1
		for j >= 0 && s[j].Start > e.Start {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = e
	}
}

// Validate checks that the catalog covers the workload completely and that
// every layout is internally consistent and within capacity, and that no
// cartridge key exceeds the hardware geometry.
func (c *Catalog) Validate(w *model.Workload, hw tape.Hardware) error {
	if c.numObjects != w.NumObjects() {
		return fmt.Errorf("catalog: sized for %d objects, workload has %d", c.numObjects, w.NumObjects())
	}
	for i := range w.Objects {
		if !c.present[i] {
			return fmt.Errorf("catalog: object %d not placed", i)
		}
		if got, want := c.locs[i].Extent.Size, w.Objects[i].Size; got != want {
			return fmt.Errorf("catalog: object %d placed with size %d, workload says %d", i, got, want)
		}
	}
	for k, l := range c.layouts {
		if k.Library < 0 || k.Library >= hw.Libraries {
			return fmt.Errorf("catalog: cartridge %s outside %d libraries", k, hw.Libraries)
		}
		if k.Index < 0 || k.Index >= hw.TapesPerLib {
			return fmt.Errorf("catalog: cartridge %s outside %d slots", k, hw.TapesPerLib)
		}
		if err := l.Validate(hw.Capacity); err != nil {
			return err
		}
	}
	return nil
}

// snapshot is the JSON wire form of the catalog.
type snapshot struct {
	NumObjects int            `json:"num_objects"`
	Tapes      []tapeSnapshot `json:"tapes"`
}

type tapeSnapshot struct {
	Library int            `json:"library"`
	Index   int            `json:"index"`
	Extents []extentRecord `json:"extents"`
}

type extentRecord struct {
	Object model.ObjectID `json:"object"`
	Start  int64          `json:"start"`
	Size   int64          `json:"size"`
}

// WriteJSON serializes the catalog (the paper's "indexing database" on
// disk) for offline inspection.
func (c *Catalog) WriteJSON(out io.Writer) error {
	snap := snapshot{NumObjects: c.numObjects}
	for _, k := range c.Tapes() {
		l := c.layouts[k]
		ts := tapeSnapshot{Library: k.Library, Index: k.Index}
		for _, e := range l.Extents() {
			ts.Extents = append(ts.Extents, extentRecord{Object: e.Object, Start: e.Start, Size: e.Size})
		}
		snap.Tapes = append(snap.Tapes, ts)
	}
	return json.NewEncoder(out).Encode(&snap)
}

// ReadJSON rebuilds a catalog written by WriteJSON.
func ReadJSON(in io.Reader) (*Catalog, error) {
	var snap snapshot
	if err := json.NewDecoder(in).Decode(&snap); err != nil {
		return nil, fmt.Errorf("catalog: decoding: %w", err)
	}
	c := New(snap.NumObjects)
	for _, ts := range snap.Tapes {
		l := tape.NewLayout(tape.Key{Library: ts.Library, Index: ts.Index})
		for _, e := range ts.Extents {
			// Reconstruct via Append to re-establish layout invariants;
			// extents were serialized in tape order so Start must line up.
			got, err := l.Append(e.Object, e.Size, 1<<62)
			if err != nil {
				return nil, err
			}
			if got.Start != e.Start {
				return nil, fmt.Errorf("catalog: cartridge L%d.T%d has non-contiguous extents", ts.Library, ts.Index)
			}
		}
		if err := c.AddLayout(l); err != nil {
			return nil, err
		}
	}
	return c, nil
}
