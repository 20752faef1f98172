// Package core implements Squeezy, the paper's contribution: an
// extension to the guest OS memory manager that partitions guest memory
// between function instances so that terminated instances' memory can
// be hot-unplugged instantly — no page migrations, no zeroing.
//
// The manager owns:
//
//   - N private partition zones, created empty at boot (the concurrency
//     factor), each rated at the function's user-configured memory
//     limit (§4.1);
//   - one shared partition backing file mappings (runtime and language
//     dependencies), pre-populated at boot (§3);
//   - the syscall interface that assigns populated partitions to
//     processes, with a waitqueue decoupling plug events from
//     assignment requests;
//   - the partition_users reference counting across fork/exit;
//   - the partition-aware unplug path that offlines empty partitions
//     without touching a single page, and the allocator hot(un)plug-
//     awareness that skips zeroing. A partition's zone queues the
//     frees of its instance's exit (mem.Zone.FreePage), and Unplug
//     takes each free partition offline in one step
//     (guestos.Kernel.OfflineZone): no coalescing, isolation scan or
//     per-block emptiness check. It reports the request as issued, even
//     when a fault window cuts how many partitions it attempts.
//     NewManager reserves the kernel's per-page storage for all the
//     partitions (guestos.Kernel.ReserveZones) before adding them.
package core
