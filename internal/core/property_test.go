package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"squeezy/internal/guestos"
	"squeezy/internal/units"
	"squeezy/internal/vmm"
)

// TestSqueezyLifecycleProperty drives random plug / attach / touch /
// exit / unplug sequences through the manager and validates the
// paper's invariants at every step:
//
//   - a process's anonymous pages never leave its partition,
//   - partition_users hits zero exactly when all member processes exit,
//   - an unplugged partition is empty and its host frames are released,
//   - partition states and counts remain consistent.
func TestSqueezyLifecycleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		m, k, s := newRig(t, 6, 256*units.MiB, 128*units.MiB, 0)
		type inst struct {
			proc *guestos.Process
			part *Partition
		}
		var live []inst
		pending := 0
		ok := true
		for step := 0; step < 200 && ok; step++ {
			switch op := rng.IntN(10); {
			case op < 3: // plug 1-2 partitions
				m.Plug(1+rng.IntN(2), func(int) {})
				s.Run()
			case op < 6: // spawn + attach (may park on the waitqueue)
				p := k.Spawn("f")
				pending++
				m.Attach(p, func(pt *Partition) {
					pending--
					live = append(live, inst{p, pt})
					if pt.State() != PartReserved {
						ok = false
					}
				})
			case op < 8 && len(live) > 0: // touch within the limit
				in := live[rng.IntN(len(live))]
				bytes := int64(rng.IntN(100)+1) * units.MiB
				if _, fit := k.TouchAnon(in.proc, bytes, guestos.HugeOrder); !fit {
					// Partition overflow: the OOM killer reaps it.
					k.Exit(in.proc)
					for i := range live {
						if live[i].proc == in.proc {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
				}
			case op < 9 && len(live) > 0: // instance terminates
				i := rng.IntN(len(live))
				in := live[i]
				live = append(live[:i], live[i+1:]...)
				k.Exit(in.proc)
				// The partition drained; it is either free or already
				// recycled to a parked waiter (never stuck mid-state).
				if in.part.Zone.NrAllocated() != 0 {
					ok = false
				}
				if in.part.State() == PartEmpty {
					ok = false // exit cannot unplug memory by itself
				}
			default: // unplug whatever is free
				m.Unplug(1+rng.IntN(2), func(r vmm.ReclaimResult) {
					if r.Breakdown.Get("migration") != 0 || r.Breakdown.Get("zeroing") != 0 {
						ok = false
					}
				})
				s.Run()
			}
			// Confinement invariant.
			for _, in := range live {
				if in.proc.AssignedZone != in.part.Zone {
					ok = false
				}
			}
			// State count sanity.
			total := m.CountState(PartEmpty) + m.CountState(PartFree) + m.CountState(PartReserved)
			if total != 6 {
				ok = false
			}
			if m.CountState(PartReserved) != len(live) {
				ok = false
			}
		}
		s.Run()
		if !ok {
			return false
		}
		// Drain: exits free partitions, which serve parked attaches
		// (appending to live); plugs cover the case of no live
		// instances. Every waiter must be served eventually.
		for round := 0; round < 100 && pending > 0; round++ {
			if len(live) > 0 {
				in := live[0]
				live = live[1:]
				k.Exit(in.proc)
			} else {
				m.Plug(6, func(int) {})
				s.Run()
			}
		}
		if pending != 0 {
			return false // a waiter starved
		}
		for _, in := range live {
			k.Exit(in.proc)
		}
		if m.CountState(PartReserved) != 0 {
			return false
		}
		m.Unplug(6, func(vmm.ReclaimResult) {})
		s.Run()
		return k.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestWaitqueueNeverStarves checks that every parked Attach is
// eventually served once enough partitions are plugged.
func TestWaitqueueNeverStarves(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xfeed))
		m, k, s := newRig(t, 8, 128*units.MiB, 0, 0)
		served := 0
		want := 8
		for i := 0; i < want; i++ {
			m.Attach(k.Spawn("f"), func(*Partition) { served++ })
			if rng.IntN(2) == 0 {
				m.Plug(1, func(int) {})
			}
		}
		// Top up: plug everything remaining.
		m.Plug(8, func(int) {})
		s.Run()
		return served == want && m.WaitqueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
