// Package graph provides the compressed-sparse-row graph substrate shared by
// every densest-subgraph algorithm in this repository: immutable undirected
// and directed graphs, builders from edge lists, induced subgraphs,
// connected components, degree statistics, edge sampling for scalability
// experiments, and text/binary serialization.
//
// Vertices are dense int32 ids 0..n-1. Adjacency is stored CSR-style
// (offsets into one flat neighbor array), the layout the paper's C++
// implementation uses and the one that keeps the parallel h-index sweeps
// memory-bandwidth bound rather than pointer-chasing bound.
//
// Both builders count degrees, place every endpoint at its vertex's
// cursor, then sort each neighbor list with slices.Sort and drop repeats
// in place; the result does not depend on the order of the edge list.
// The text reader parses the common "u v" line shape in place without
// allocating, hands any other line to a general TrimSpace/Fields/ParseInt
// path that owns every accept/reject decision and error message, and maps
// raw ids through a dense table whose length is capped by the bytes read
// so far, with a map for ids past the cap (see io.go).
package graph
