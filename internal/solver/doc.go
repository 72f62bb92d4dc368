// Package solver is the pluggable algorithm registry behind dsd.SolveUDS
// and dsd.SolveDDS.
//
// Each implementing package (internal/uds, internal/dds) registers a
// Descriptor per algorithm from an init function: the wire name, problem
// kind, guarantee grade and fine print, paper mapping, trace support,
// degradation role, and the solve function itself — the package's one
// exported function for that algorithm, whose Params and Result types are
// defined here so every layer shares them. Everything downstream —
// the public dispatch layer, the HTTP server's validation and -degrade
// auto ladder, the CLI's -algorithms listing, the bench harness's lineups,
// and the generated docs/ALGORITHMS.md — reads this one table, so a new
// algorithm registered here is reachable everywhere without touching any
// of those layers.
//
// Registration runs at init time and panics on malformed or conflicting
// descriptors (duplicate names, two defaults, colliding degrade ranks):
// a wiring bug should kill the process at start, not surface as a missing
// algorithm in production.
package solver
