// Package trace synthesizes FaaS invocation traces with the bursty,
// heavy-tailed shape of the Azure Functions production traces the paper
// replays (§6.2.1, [66, 83]), and provides the instance-churn analysis
// behind Figure 2.
//
// The real traces are proprietary; the generator reproduces the
// properties the experiments depend on: long quiet stretches at a low
// base rate punctuated by bursts that force the runtime to scale
// instance counts up and down by tens per minute. FleetCursors layers
// Zipf function popularity over the bursty generator to shape
// whole-fleet workloads, and NewFleetStream merges the per-function
// cursors into the single time-ordered stream the cluster dispatcher
// replays — the boundary events of the fleet's epoch protocol.
//
// Every invocation sequence — generated, merged or read from CSV — is
// a Stream, pulled one invocation at a time; no trace is materialized.
//
// Every generator is a pure function of its seed; sub-streams for
// adjacent functions or cells should derive through well-separated
// seeds (the experiments package's SubSeed), never base+index
// arithmetic.
package trace
