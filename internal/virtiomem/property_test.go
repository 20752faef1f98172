package virtiomem

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"squeezy/internal/guestos"
	"squeezy/internal/units"
	"squeezy/internal/vmm"
	"squeezy/internal/workload"
)

// TestUnplugProperty drives random plug/unplug requests against a guest
// under random memhog load and checks, after every operation:
//
//   - no process ever loses or gains pages (migration is transparent),
//   - reclaimed bytes are block-aligned and never exceed the request,
//   - host commit accounting matches the online block count,
//   - the kernel's cross-layer invariants hold.
func TestUnplugProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x77))
		d, k, s := newRig(t, 16, 0)
		d.Plug(16*units.BlockSize, func(int64) {})
		s.Run()
		k.ScrambleFreeLists(k.Movable, rng)

		var hogs []*workload.Memhog
		checkHogs := func() bool {
			for _, h := range hogs {
				if units.PagesToBytes(h.Proc.AnonPages()) != h.Size {
					return false
				}
			}
			return true
		}

		for step := 0; step < 40; step++ {
			switch rng.IntN(4) {
			case 0: // spawn a memhog if memory allows (THP-aligned size
				// so the footprint matches the request exactly)
				size := int64(rng.IntN(128)+32) * units.HugePageSize
				if units.PagesToBytes(k.Movable.NrFree()) < size+64*units.MiB {
					continue
				}
				h := workload.NewMemhog(k, fmt.Sprintf("hog%d", len(hogs)), size)
				if !h.Warmup() {
					h.Kill()
					continue
				}
				hogs = append(hogs, h)
			case 1: // kill one
				if len(hogs) == 0 {
					continue
				}
				i := rng.IntN(len(hogs))
				hogs[i].Kill()
				hogs = append(hogs[:i], hogs[i+1:]...)
			case 2: // unplug a random amount
				req := int64(rng.IntN(4)+1) * units.BlockSize
				var res vmm.ReclaimResult
				d.Unplug(req, func(r vmm.ReclaimResult) { res = r })
				s.Run()
				if res.ReclaimedBytes%units.BlockSize != 0 || res.ReclaimedBytes > req {
					return false
				}
			case 3: // plug some back
				d.Plug(int64(rng.IntN(3)+1)*units.BlockSize, func(int64) {})
				s.Run()
			}
			if !checkHogs() {
				return false
			}
			// Commit accounting: boot + online movable blocks.
			wantCommit := units.BytesToPages(units.BlockSize) +
				int64(len(k.Movable.OnlineBlocks()))*units.PagesPerBlock
			if k.VM.CommittedPages() != wantCommit {
				return false
			}
			if err := k.CheckInvariants(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestCandidatePolicyCost: the naive top-down scan migrates at least as
// much as emptiest-first for the same workload.
func TestCandidatePolicyCost(t *testing.T) {
	run := func(policy CandidatePolicy) int64 {
		d, k, s := newRig(t, 8, 0)
		d.Policy = policy
		d.Plug(8*units.BlockSize, func(int64) {})
		s.Run()
		rng := rand.New(rand.NewPCG(42, 42))
		k.ScrambleFreeLists(k.Movable, rng)
		hogs := make([]*workload.Memhog, 3)
		for i := range hogs {
			hogs[i] = workload.NewMemhog(k, fmt.Sprintf("hog%d", i), 192*units.MiB)
			hogs[i].Warmup()
		}
		hogs[0].Kill()
		var res vmm.ReclaimResult
		d.Unplug(2*units.BlockSize, func(r vmm.ReclaimResult) { res = r })
		s.Run()
		return res.MigratedPages
	}
	emptiest := run(EmptiestFirst)
	highest := run(HighestFirst)
	if highest < emptiest {
		t.Fatalf("top-down scan migrated less (%d) than emptiest-first (%d)", highest, emptiest)
	}
}

// TestPlugUnplugRoundTripStress: repeated full-cycle resizing never
// leaks blocks or host frames.
func TestPlugUnplugRoundTripStress(t *testing.T) {
	d, k, s := newRig(t, 8, 0)
	for cycle := 0; cycle < 10; cycle++ {
		d.Plug(8*units.BlockSize, func(int64) {})
		s.Run()
		p := k.Spawn("worker")
		if _, ok := k.TouchAnon(p, 512*units.MiB, guestos.HugeOrder); !ok {
			t.Fatalf("cycle %d: touch failed", cycle)
		}
		k.Exit(p)
		var res vmm.ReclaimResult
		d.Unplug(8*units.BlockSize, func(r vmm.ReclaimResult) { res = r })
		s.Run()
		if res.ReclaimedBytes != 8*units.BlockSize {
			t.Fatalf("cycle %d: reclaimed %s", cycle, units.HumanBytes(res.ReclaimedBytes))
		}
	}
	// After the last cycle only the boot memory remains committed.
	if got := k.VM.CommittedPages(); got != units.BytesToPages(units.BlockSize) {
		t.Fatalf("committed = %d pages after drain", got)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
