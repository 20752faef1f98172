package vmm_test

import (
	"testing"

	"squeezy/internal/balloon"
	"squeezy/internal/core"
	"squeezy/internal/costmodel"
	"squeezy/internal/guestos"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/virtiomem"
	"squeezy/internal/vmm"
)

// scriptedFaults stalls the i-th command completion by stalls[i] (0
// past the end of the script) and reports a fixed reclaim fraction.
type scriptedFaults struct {
	stalls []sim.Duration
	frac   float64
	calls  int
}

func (f *scriptedFaults) ReclaimStall() sim.Duration {
	i := f.calls
	f.calls++
	if i < len(f.stalls) {
		return f.stalls[i]
	}
	return 0
}

func (f *scriptedFaults) ReclaimFraction() float64 { return f.frac }

// reqBytes is what one reclaim command asks for.
const reqBytes = 2 * units.BlockSize

// deviceRig is one backend with enough memory plugged for three
// reclaim commands of reqBytes each.
type deviceRig struct {
	sched   *sim.Scheduler
	dev     *vmm.Device
	reclaim func(func(vmm.ReclaimResult))
}

func newDeviceRig(t *testing.T, backend string) deviceRig {
	t.Helper()
	s := sim.NewScheduler()
	vm := vmm.New("vm0", s, costmodel.Default(), hostmem.New(0), 4)
	switch backend {
	case "virtio-mem":
		k := guestos.NewKernel(vm, guestos.Config{
			BootBytes:           units.BlockSize,
			MovableBytes:        6 * units.BlockSize,
			KernelResidentBytes: 8 * units.MiB,
		})
		d := virtiomem.New(k)
		d.Plug(6*units.BlockSize, func(int64) {})
		s.Run()
		return deviceRig{sched: s, dev: &d.Device,
			reclaim: func(done func(vmm.ReclaimResult)) { d.Unplug(reqBytes, done) }}
	case "squeezy":
		k := guestos.NewKernel(vm, guestos.Config{
			BootBytes:           units.BlockSize,
			KernelResidentBytes: 8 * units.MiB,
		})
		m := core.NewManager(k, core.Config{PartitionBytes: units.BlockSize, Concurrency: 6})
		m.Plug(6, func(int) {})
		s.Run()
		return deviceRig{sched: s, dev: &m.Device,
			reclaim: func(done func(vmm.ReclaimResult)) { m.Unplug(2, done) }}
	case "balloon":
		k := guestos.NewKernel(vm, guestos.Config{
			BootBytes:           units.BlockSize,
			MovableBytes:        8 * units.BlockSize,
			KernelResidentBytes: 8 * units.MiB,
		})
		k.OnlineAllMovable()
		d := balloon.New(k)
		return deviceRig{sched: s, dev: &d.Device,
			reclaim: func(done func(vmm.ReclaimResult)) { d.Inflate(reqBytes, done) }}
	}
	t.Fatalf("unknown backend %q", backend)
	return deviceRig{}
}

// completion is one command's observed completion.
type completion struct {
	cmd     int
	at      sim.Time
	latency sim.Duration
}

// runThree submits three reclaim commands back to back under faults
// and returns their completions in the order they arrived.
func runThree(t *testing.T, backend string, f *scriptedFaults) []completion {
	rig := newDeviceRig(t, backend)
	rig.dev.Faults = f
	var got []completion
	for i := range 3 {
		rig.reclaim(func(r vmm.ReclaimResult) {
			got = append(got, completion{cmd: i, at: rig.sched.Now(), latency: r.Latency})
		})
	}
	rig.sched.Run()
	return got
}

// TestDeviceCommandPath pins the device semantics every backend shares:
// one command at a time in submission order, an injected stall held
// inside the busy window (so it delays the queue behind the command
// too), and the reclaim fraction cutting what a command attempts.
func TestDeviceCommandPath(t *testing.T) {
	const stall = 7 * sim.Second
	for _, backend := range []string{"virtio-mem", "squeezy", "balloon"} {
		t.Run(backend, func(t *testing.T) {
			plain := runThree(t, backend, &scriptedFaults{frac: 1})
			if len(plain) != 3 {
				t.Fatalf("%d of 3 commands completed", len(plain))
			}
			for i, c := range plain {
				if c.cmd != i {
					t.Fatalf("completion %d is command %d, want submission order", i, c.cmd)
				}
				if c.latency <= 0 {
					t.Fatalf("command %d latency %v, want the steps' wall time", i, c.latency)
				}
				// With no stall a command's work starts when it is
				// taken, so at - latency is its start.
				if i > 0 && c.at < plain[i-1].at.Add(c.latency) {
					t.Fatalf("command %d started at %v, before command %d completed at %v",
						i, c.at.Add(-c.latency), i-1, plain[i-1].at)
				}
			}

			stalled := runThree(t, backend, &scriptedFaults{stalls: []sim.Duration{stall}, frac: 1})
			if len(stalled) != 3 {
				t.Fatalf("%d of 3 commands completed under the stall", len(stalled))
			}
			for i, c := range stalled {
				if c.cmd != i {
					t.Fatalf("stalled: completion %d is command %d, want submission order", i, c.cmd)
				}
				if d := c.at.Sub(plain[i].at); d != stall {
					t.Fatalf("stalling command 0 by %v moved command %d's completion by %v, want %v", stall, i, d, stall)
				}
				if c.latency != plain[i].latency {
					t.Fatalf("command %d latency %v under the stall, want the unstalled %v", i, c.latency, plain[i].latency)
				}
			}

			rig := newDeviceRig(t, backend)
			rig.dev.Faults = &scriptedFaults{frac: 0.5}
			var req, got int64 = -1, -1
			rig.reclaim(func(r vmm.ReclaimResult) { req, got = r.RequestedBytes, r.ReclaimedBytes })
			rig.sched.Run()
			if req != reqBytes {
				t.Fatalf("requested %s, want the %s issued", units.HumanBytes(req), units.HumanBytes(reqBytes))
			}
			if got != reqBytes/2 {
				t.Fatalf("reclaimed %s under fraction 0.5, want %s", units.HumanBytes(got), units.HumanBytes(reqBytes/2))
			}
		})
	}
}
