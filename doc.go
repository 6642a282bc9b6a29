// Package droppackets reproduces "Drop the Packets: Using
// Coarse-grained Data to detect Video Performance Issues" (Mangla,
// Halepovic, Zegura, Ammar — CoNEXT 2020): per-session video QoE
// estimation from TLS-transaction logs collected by a transparent
// proxy, evaluated against a packet-trace baseline, plus the paper's
// back-to-back session-identification heuristic.
//
// The public surface lives under internal/ packages by design — this
// module is a research artifact whose stable entry points are the
// commands (cmd/qoebench, cmd/qoeinfer, cmd/qoeproxy, cmd/tracegen)
// and the runnable examples (examples/...). The benchmark harness in
// bench_test.go regenerates every table and figure of the paper's
// evaluation; see DESIGN.md for the experiment index and EXPERIMENTS.md
// for measured-vs-paper results.
package droppackets
