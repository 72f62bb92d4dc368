// Package uds solves the Undirected Densest Subgraph problem (the paper's
// Problem 1): given G, find S maximizing ρ(G[S]) = |E(S)|/|S|. It provides
// the exact Goldberg flow solvers — an integer Newton search over min-cuts,
// on the whole graph (Exact) or on the ⌈ρ̃⌉-core one BZ pass yields
// (ExactPruned) — plus every approximation algorithm of the paper's Exp-1
// lineup — Charikar's serial peeling, PBU (Bahmani batch
// peeling), PFW (Frank–Wolfe), and the three k*-core routes Local, PKC and
// PKMC (the paper's contribution, Algorithm 2 with the Theorem-1 early
// stop).
//
// Every solver is one exported function with the registry's signature,
// func(ctx, g, solver.Params) (solver.Result, error), registered directly
// in register.go. Each takes its knobs from Params and polls ctx (or checks
// it once on entry when it has no loop to poll). An armed Params.Trace
// adds phase timings, h-index iteration logs and pruning counters; a nil
// trace returns the same answer untraced.
package uds
