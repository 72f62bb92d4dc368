package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro"
	"repro/internal/live"
)

// The live layer, measured in the traced file-to-answer run: a seeded
// stream of 16-edge insert/delete batches, liveRate batches per second of
// the window, replayed through live.Graph.Apply in process. Endpoints are
// drawn by Chung–Lu weight, so batches reach the k*-core; deletes target
// only edges present at that point of the stream. This is the mutation
// stream a served live graph would take; serving it over HTTP is not yet
// a workload (see README.md).
const (
	liveBatch = 16
	liveRate  = 10 // batches per second
)

// dynGraph is the stream simulation's mutable copy of the graph:
// adjacency lists with swap-delete.
type dynGraph struct {
	adj [][]int32
}

func newDynGraph(n int, edges [][2]int32) *dynGraph {
	deg := make([]int32, n)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	g := &dynGraph{adj: make([][]int32, n)}
	for v := range g.adj {
		g.adj[v] = make([]int32, 0, deg[v])
	}
	for _, e := range edges {
		g.adj[e[0]] = append(g.adj[e[0]], e[1])
		g.adj[e[1]] = append(g.adj[e[1]], e[0])
	}
	return g
}

func (g *dynGraph) has(u, v int32) bool {
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, x := range g.adj[a] {
		if x == b {
			return true
		}
	}
	return false
}

func (g *dynGraph) insert(u, v int32) bool {
	if u == v || g.has(u, v) {
		return false
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	return true
}

func (g *dynGraph) remove(u, v int32) bool {
	return g.unlink(u, v) && g.unlink(v, u)
}

func (g *dynGraph) unlink(u, v int32) bool {
	a := g.adj[u]
	for i, x := range a {
		if x == v {
			a[i] = a[len(a)-1]
			g.adj[u] = a[:len(a)-1]
			return true
		}
	}
	return false
}

// liveBatchT is one mutation batch with the outcome the stream simulation
// expects: how many ops insert a new edge and how many delete one.
type liveBatchT struct {
	ops               []live.Mutation
	inserted, deleted int
}

// liveStream generates count batches from seed, simulating them on a copy
// of the graph so deletes hit present edges and each op touches a
// distinct vertex pair of its batch.
func liveStream(in *inputSet, seed int64, count int) []liveBatchT {
	g := newDynGraph(in.cl.n, in.clE)
	rng := rand.New(rand.NewSource(seed*104729 + 5))
	prefix := make([]float64, len(in.clW)+1)
	for i, w := range in.clW {
		prefix[i+1] = prefix[i] + w
	}
	draw := func() int32 {
		x := rng.Float64() * prefix[len(prefix)-1]
		return int32(sort.SearchFloat64s(prefix[1:], x))
	}
	out := make([]liveBatchT, count)
	for b := range out {
		used := map[[2]int32]bool{}
		pair := func(u, v int32) [2]int32 {
			if u > v {
				u, v = v, u
			}
			return [2]int32{u, v}
		}
		var batch liveBatchT
		for len(batch.ops) < liveBatch {
			u := draw()
			if rng.Intn(2) == 0 {
				v := draw()
				if u == v || used[pair(u, v)] {
					continue
				}
				used[pair(u, v)] = true
				if g.insert(u, v) {
					batch.inserted++
				}
				batch.ops = append(batch.ops, live.Mutation{Op: live.OpInsert, U: u, V: v})
				continue
			}
			if len(g.adj[u]) == 0 {
				continue
			}
			v := g.adj[u][rng.Intn(len(g.adj[u]))]
			if used[pair(u, v)] {
				continue
			}
			used[pair(u, v)] = true
			g.remove(u, v)
			batch.deleted++
			batch.ops = append(batch.ops, live.Mutation{Op: live.OpDelete, U: u, V: v})
		}
		out[b] = batch
	}
	return out
}

// liveReplay is what an in-process replay of a mutation stream through the
// live package measured.
type liveReplay struct {
	callMs                  []float64 // the whole Apply call
	applyMs                 []float64 // ApplyResult.ApplyMs, the repair alone
	postMs                  []float64 // call minus ApplyMs: standing densest and publish
	touched                 []float64
	densestMs               []float64 // Densest, every fifth batch
	snapMs                  []float64 // Snapshot after a version bump, every 25th batch
	compactions, recomputes int
}

// replayLive applies the stream through live.Graph.Apply in this process,
// from the graph in the DSD2 file, checking each batch's counts against
// the stream's own simulation.
func replayLive(in *inputSet, stream []liveBatchT, rec *recorder, t *tally) liveReplay {
	var r liveReplay
	g, err := dsd.LoadGraph(in.path("cl.dsdg"))
	if err != nil {
		t.record("replay.load", err)
		return r
	}
	lg := live.New(g, live.Config{}, nil)
	for i, b := range stream {
		t0 := time.Now()
		a, err := lg.Apply(b.ops)
		call := time.Now()
		rec.add("live.Apply", int64(i), -1, t0, call)
		if err == nil && (a.Inserted != b.inserted || a.Deleted != b.deleted) {
			err = fmt.Errorf("replayed batch %d: inserted %d deleted %d, stream expects %d and %d",
				i, a.Inserted, a.Deleted, b.inserted, b.deleted)
		}
		if !t.record("replay.apply", err) {
			return r
		}
		ms := float64(call.Sub(t0).Nanoseconds()) / 1e6
		r.callMs = append(r.callMs, ms)
		r.applyMs = append(r.applyMs, a.ApplyMs)
		r.postMs = append(r.postMs, ms-a.ApplyMs)
		r.touched = append(r.touched, float64(a.Touched))
		r.compactions += b2i(a.Compacted)
		r.recomputes += b2i(a.Recomputed)
		if i%5 == 4 {
			t0 = time.Now()
			lg.Densest()
			rec.add("live.Densest", int64(i), -1, t0, time.Now())
			r.densestMs = append(r.densestMs, msSince(t0))
		}
		if i%25 == 24 {
			t0 = time.Now()
			lg.Snapshot()
			rec.add("live.Snapshot", int64(i), -1, t0, time.Now())
			r.snapMs = append(r.snapMs, msSince(t0))
		}
	}
	return r
}
