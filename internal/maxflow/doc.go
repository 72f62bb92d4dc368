// Package maxflow implements Dinic's maximum-flow algorithm on capacity
// networks with float64 capacities; on integer capacities below 2^53 every
// flow it computes is exact. It is the substrate for the exact
// densest-subgraph solvers: Goldberg's construction for UDS and the
// Khuller–Saha / Ma et al. parametric construction for DDS both reduce a
// density-threshold test "is there a subgraph with density > g?" to one
// min-cut computation. A network can be solved again after SetCapacity
// rewrites its arcs, so a search over thresholds builds it once.
package maxflow
