package core

import (
	"strings"
	"testing"

	"zivsim/internal/directory"
	"zivsim/internal/policy"
)

// These negative-path tests corrupt LLC state directly and assert that
// CheckInvariants reports each distinct failure. They document which
// corruption maps to which error message, so a future refactor that
// silently weakens a check fails here first.

// wantInvariantError asserts CheckInvariants fails with a message
// containing frag.
func wantInvariantError(t *testing.T, llc *LLC, frag string) {
	t.Helper()
	err := llc.CheckInvariants()
	if err == nil {
		t.Fatalf("CheckInvariants passed; want error containing %q", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("CheckInvariants() = %q, want message containing %q", err, frag)
	}
}

// relocatedSetup drives the ZIV fill path until a block is relocated,
// returning the LLC, directory, and the relocated block's address and
// location. Mirrors TestFillOutcomeRelocationFields.
func relocatedSetup(t *testing.T) (*LLC, *directory.Directory, uint64, directory.Location) {
	t.Helper()
	llc, dir := mkLLC(t, SchemeZIV, PropNotInPrC, lruPol)
	d := newDriver(t, llc, dir, 64)
	d.prefill(2, 8, 4)
	addrs := conflictAddrs(5)
	for _, a := range addrs[:4] {
		d.access(0, a, 1)
	}
	addr := addrs[4]
	if _, evicted, _ := dir.Allocate(addr, 0, directory.Exclusive); evicted != nil {
		t.Fatal("unexpected directory eviction in setup")
	}
	out := llc.Fill(addr, 0, false, true, policy.Meta{Addr: addr}, 123)
	if !out.Relocation.Valid {
		t.Fatalf("setup produced no relocation: %+v", out)
	}
	if err := llc.CheckInvariants(); err != nil {
		t.Fatalf("setup not clean before corruption: %v", err)
	}
	return llc, dir, addr, relocatedLoc(t, dir, addrs[:4])
}

// relocatedLoc returns the location of the one block among addrs whose
// directory entry marks it relocated.
func relocatedLoc(t *testing.T, dir *directory.Directory, addrs []uint64) directory.Location {
	t.Helper()
	for _, a := range addrs {
		if e, _, ok := dir.Find(a); ok && e.Relocated {
			return e.Loc
		}
	}
	t.Fatalf("none of %#x is relocated", addrs)
	return directory.Location{}
}

func TestCheckInvariantsDetectsTagSidecarCorruption(t *testing.T) {
	llc, dir := mkLLC(t, SchemeBaseline, PropNone, lruPol)
	d := newDriver(t, llc, dir, 16)
	d.access(0, 7, 4)
	loc, hit := llc.Probe(7)
	if !hit {
		t.Fatal("filled block not found")
	}
	llc.banks[loc.Bank].tags[loc.Set*llc.cfg.Ways+loc.Way] = 0xbad00bad
	wantInvariantError(t, llc, "tag sidecar")
}

func TestCheckInvariantsDetectsStaleDirectoryPointer(t *testing.T) {
	llc, _, _, to := relocatedSetup(t)
	// Point the relocated block's tag-encoded pointer at an overflow
	// address no directory slice tracks: At resolves it to nil.
	llc.slot(to).DirPtr = directory.Ptr{Bank: to.Bank, Way: -1, OverflowAddr: 0xdeadbeef}
	wantInvariantError(t, llc, "stale directory pointer")
}

func TestCheckInvariantsDetectsNonRelocatedEntryTarget(t *testing.T) {
	llc, dir, addr, to := relocatedSetup(t)
	// Retarget the back-pointer at a tracked-but-not-relocated entry.
	var victim directory.Ptr
	found := false
	dir.ForEach(func(e *directory.Entry, p directory.Ptr) {
		if !found && !e.Relocated && e.Addr != addr {
			victim, found = p, true
		}
	})
	if !found {
		t.Fatal("no non-relocated directory entry available")
	}
	llc.slot(to).DirPtr = victim
	wantInvariantError(t, llc, "directory entry not in Relocated state")
}

func TestCheckInvariantsDetectsBrokenReverseLinkage(t *testing.T) {
	llc, _, _, to := relocatedSetup(t)
	// Vanish the relocated LLC copy while the directory entry still points
	// at it; clearWay leaves the way's masks, tag and the set's property
	// vectors consistent with the emptied way.
	llc.banks[to.Bank].clearWay(llc, to.Set, to.Way)
	wantInvariantError(t, llc, "but LLC block there is")
}

func TestCheckInvariantsDetectsBackPointerMismatch(t *testing.T) {
	llc, dir, addr, to := relocatedSetup(t)
	// Fabricate a second Relocated entry claiming the same LLC location:
	// the block's back-pointer can only name one of them, so the reverse
	// walk must flag the impostor.
	impostor := addr + 0x10000
	p2, evicted, _ := dir.Allocate(impostor, 0, directory.Exclusive)
	if evicted != nil {
		t.Fatal("unexpected directory eviction in setup")
	}
	e2 := dir.At(p2)
	e2.Relocated = true
	e2.Loc = to
	e2.Addr = llc.slot(to).Addr
	wantInvariantError(t, llc, "block back-pointer")
}

func TestCheckInvariantsDetectsPVBitFlip(t *testing.T) {
	llc, dir := mkLLC(t, SchemeZIV, PropNotInPrC, lruPol)
	d := newDriver(t, llc, dir, 32)
	for _, a := range conflictAddrs(4) {
		d.access(0, a, 4)
		d.dropPrivate(0, a) // NotInPrC blocks turn property bits on
	}
	d.check()
	bk := &llc.banks[0]
	lev := llc.levels[0]
	set := 0
	bk.pvs[lev].Set(set, !bk.pvs[lev].Get(set))
	wantInvariantError(t, llc, "PV bit")
}

func TestCheckInvariantsDetectsNotInPrCDisagreement(t *testing.T) {
	llc, dir := mkLLC(t, SchemeBaseline, PropNone, lruPol)
	d := newDriver(t, llc, dir, 16)
	d.access(0, 9, 4)
	loc, hit := llc.Probe(9)
	if !hit {
		t.Fatal("filled block not found")
	}
	// The block is privately cached (directory tracks it), so NotInPrC
	// must be false; flip its mask bit behind the accessors' back.
	llc.banks[loc.Bank].masks[loc.Set].notInPrC |= 1 << uint(loc.Way)
	wantInvariantError(t, llc, "directory tracked")
}

func TestCheckInvariantsDetectsNotInPrCOnInvalidWay(t *testing.T) {
	llc, dir := mkLLC(t, SchemeBaseline, PropNone, lruPol)
	d := newDriver(t, llc, dir, 16)
	d.access(0, 10, 4)
	loc, hit := llc.Probe(10)
	if !hit {
		t.Fatal("filled block not found")
	}
	// The set's next way holds no block, so it cannot be NotInPrC.
	llc.banks[loc.Bank].masks[loc.Set].notInPrC |= 1 << uint(loc.Way+1)
	wantInvariantError(t, llc, "NotInPrC without Valid")
}

func TestCheckInvariantsDetectsLikelyDeadInPrC(t *testing.T) {
	llc, dir := mkLLC(t, SchemeBaseline, PropNone, lruPol)
	d := newDriver(t, llc, dir, 16)
	d.access(0, 11, 4)
	loc, hit := llc.Probe(11)
	if !hit {
		t.Fatal("filled block not found")
	}
	// The block is privately cached, so it cannot be likely dead.
	llc.banks[loc.Bank].masks[loc.Set].dead |= 1 << uint(loc.Way)
	wantInvariantError(t, llc, "LikelyDead without NotInPrC")
}

func TestCheckInvariantsDetectsDuplicateBlock(t *testing.T) {
	llc, dir := mkLLC(t, SchemeBaseline, PropNone, lruPol)
	d := newDriver(t, llc, dir, 16)
	d.access(0, 12, 4)
	d.access(0, 13, 4)
	from, hit12 := llc.Probe(12)
	to, hit13 := llc.Probe(13)
	if !hit12 || !hit13 {
		t.Fatal("filled blocks not found")
	}
	// Copy block 12's slot over block 13's, tag sidecar included (both are
	// privately cached, so their mask bits already agree), so that only the
	// second copy of address 12 is wrong.
	*llc.slot(to) = *llc.slot(from)
	llc.banks[to.Bank].tags[to.Set*llc.cfg.Ways+to.Way] = 12
	wantInvariantError(t, llc, "duplicated in LLC")
}

func TestCheckInvariantsDetectsRelocatedAddressMismatch(t *testing.T) {
	llc, _, _, to := relocatedSetup(t)
	// Give the relocated block an address no other block holds: its
	// pointer, state and location still agree with the directory entry, so
	// only the reverse walk's address comparison sees it.
	llc.slot(to).Addr = 0xfeedf00d
	wantInvariantError(t, llc, "but LLC block there is")
}

func TestCheckInvariantsDetectsRelocatedNotInPrC(t *testing.T) {
	llc, _, _, to := relocatedSetup(t)
	// A block is relocated only while private copies pin it.
	llc.banks[to.Bank].masks[to.Set].notInPrC |= 1 << uint(to.Way)
	wantInvariantError(t, llc, "marked NotInPrC (must have private copies)")
}
