package hierarchy

import (
	"strings"
	"testing"

	"zivsim/internal/directory"
)

// Negative-path tests for CheckInclusion: each corrupts a consistent
// machine directly and asserts the specific diagnostic fires, pinning the
// check code's error coverage the same way internal/core/debug_test.go
// pins CheckInvariants.

// wantInclusionError asserts CheckInclusion fails with a message
// containing frag.
func wantInclusionError(t *testing.T, m *Machine, frag string) {
	t.Helper()
	err := m.CheckInclusion()
	if err == nil {
		t.Fatalf("CheckInclusion passed; want error containing %q", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("CheckInclusion() = %q, want message containing %q", err, frag)
	}
}

// trackedEntry returns some directory entry with at least one sharer and
// that sharer's core id.
func trackedEntry(t *testing.T, m *Machine) (addr uint64, coreID int) {
	t.Helper()
	found := false
	m.dir.ForEach(func(e *directory.Entry, _ directory.Ptr) {
		if found || e.Relocated || e.Sharers.Count() == 0 {
			return
		}
		addr = e.Addr
		e.Sharers.ForEach(func(id int) { coreID = id })
		found = true
	})
	if !found {
		t.Fatal("machine finished with no tracked directory entries")
	}
	return addr, coreID
}

func TestCheckInclusionDetectsDroppedPrivateCopy(t *testing.T) {
	m := runMachine(t, testConfig(), 31, 500, 3000)
	addr, coreID := trackedEntry(t, m)
	// Evaporate the private copies while the directory still lists the
	// core as a sharer.
	c := &m.cores[coreID]
	c.l1.Invalidate(addr)
	c.l2.Invalidate(addr)
	wantInclusionError(t, m, "but the core does not hold it")
}

func TestCheckInclusionDetectsUntrackedPrivateBlock(t *testing.T) {
	m := runMachine(t, testConfig(), 32, 500, 3000)
	c := &m.cores[0]
	bogus := uint64(0xf) << 44 // outside every generator's address range
	if e, _, ok := m.dir.Find(bogus); ok && e != nil {
		t.Fatalf("bogus address %#x unexpectedly tracked", bogus)
	}
	set := c.l1.SetIndex(bogus)
	way, valid := c.l1.Victim(set)
	if valid {
		c.l1.EvictWay(set, way) // drop the occupant silently: l2 still holds it
	}
	c.l1.FillWay(set, way, bogus, false, false)
	wantInclusionError(t, m, "holds untracked block")
}

func TestCheckInclusionDetectsMissingSharerBit(t *testing.T) {
	m := runMachine(t, testConfig(), 33, 500, 3000)
	addr, coreID := trackedEntry(t, m)
	e, _, ok := m.dir.Find(addr)
	if !ok {
		t.Fatalf("entry for %#x vanished", addr)
	}
	// The core still holds the block privately, but the directory no
	// longer lists it. The forward walk trips on the held copy before the
	// reverse walk can complain about a possibly sharer-less entry.
	e.Sharers.Clear(coreID)
	wantInclusionError(t, m, "is not a sharer")
}

func TestCheckInclusionDetectsInclusionViolation(t *testing.T) {
	m := runMachine(t, testConfig(), 34, 500, 3000) // testConfig is Inclusive
	// Find a tracked, non-relocated block and delete its LLC copy without
	// notifying the private caches.
	var addr uint64
	found := false
	m.dir.ForEach(func(e *directory.Entry, _ directory.Ptr) {
		if found || e.Relocated || e.Sharers.Count() == 0 {
			return
		}
		if _, hit := m.llc.Probe(e.Addr); hit {
			addr, found = e.Addr, true
		}
	})
	if !found {
		t.Fatal("no tracked block with an LLC copy")
	}
	if present, _ := m.llc.Invalidate(addr); !present {
		t.Fatalf("LLC copy of %#x vanished before corruption", addr)
	}
	wantInclusionError(t, m, "inclusion violated")
}
