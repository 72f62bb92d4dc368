// Package dds solves the Directed Densest Subgraph problem (the paper's
// Problem 2): given a digraph D, find vertex sets S, T maximizing
// ρ(S, T) = |E(S, T)| / sqrt(|S|·|T|). It implements the full Exp-5 lineup:
// the exact flow solver and brute-force oracle, the peeling baselines PBS
// (Charikar), PFKS (Khuller–Saha, fixed) and PBD (Bahmani), the Frank–Wolfe
// PFW, the state-of-the-art core enumeration PXY (Ma et al.), and the
// paper's contribution PWC — the [x*, y*]-core extracted from a single
// w*-induced subgraph decomposition (Algorithms 3 and 4).
//
// The w-induced subgraph is the paper's Theorem 2 at work: with arc weight
// w(u→v) = d⁺(u)·d⁻(v), the maximum induce-number w* satisfies w* = x*·y*,
// so the densest pair's core lives inside the (much smaller) w*-induced
// subgraph and one decomposition replaces PXY's enumeration over all (x, y)
// candidates. WStarSubgraph is Algorithm 3; PWC is Algorithm 4, and its
// trace counters carry the paper's Table-7 arc counts.
//
// Algorithm 3 runs as a frontier peel (wcore.go): each weight level is one
// fused scan of the live arc list, which drops removed arcs and finds the
// level's minimum weight and its arcs, then frontier rounds that remove
// them and re-check only the arcs whose weight dropped — the out-arcs of a
// tail whose d⁺ fell and the in-arcs of a head whose d⁻ fell. Each arc
// records the level that removed it, so the arcs of the last level are the
// w*-induced subgraph. The same engine runs Algorithm 4's edge deletions
// and ExactPruned's ⌈ρ̃²/4⌉ prune.
//
// As in internal/uds, every solver is one exported function with the
// registry's signature, func(ctx, d, solver.Params)
// (solver.DirectedResult, error), registered directly in register.go.
package dds
