// Graph analytics scenario: semi-external BFS over a memory-mapped
// adjacency file (the paper cites graph processing as a core consumer of
// memory-mapped I/O). Each vertex's adjacency list lives in its own 4 KiB
// page; visiting a cold vertex takes a demand-paging miss. The walk is
// data-dependent — the next reads are only known after the current page
// arrives — so the miss latency is squarely on the critical path, and the
// OSDP→HWDP latency cut translates almost 1:1 into end-to-end runtime.
package main

import (
	"encoding/binary"
	"fmt"

	"hwdp/internal/core"
	"hwdp/internal/kernel"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
)

const (
	vertices = 6000
	degree   = 12
	memoryMB = 8 // far smaller than the 23 MiB graph: out-of-core
)

// neighbor derives a deterministic pseudo-random edge target.
func neighbor(v uint64, i int) uint64 {
	h := (v*1099511628211 + uint64(i) + 1) * 0x9e3779b97f4a7c15
	return h % vertices
}

// adjInit generates the adjacency page of vertex `page`.
func adjInit(page int, buf []byte) {
	binary.LittleEndian.PutUint32(buf[0:], degree)
	for i := 0; i < degree; i++ {
		binary.LittleEndian.PutUint64(buf[4+8*i:], neighbor(uint64(page), i))
	}
}

func bfs(scheme kernel.Scheme) (visited int, elapsed sim.Time, faults uint64) {
	cfg := core.DefaultConfig(scheme)
	cfg.MemoryBytes = memoryMB << 20
	cfg.Seed = 7
	sys, err := core.NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	base, _, err := sys.MapFile("graph.adj", vertices, adjInit, sys.FastFlags())
	if err != nil {
		panic(err)
	}
	th := sys.WorkloadThread(0)

	seen := make([]bool, vertices)
	queue := []uint64{0}
	seen[0] = true
	visited = 1
	buf := make([]byte, 4096)
	done := false

	var step func()
	step = func() {
		if len(queue) == 0 {
			done = true
			return
		}
		v := queue[0]
		queue = queue[1:]
		va := base + pagetable.VAddr(v)*4096
		// Read the adjacency page through the simulated VM (faulting it in
		// from the SSD if cold), then a little user compute per vertex.
		sys.K.Load(th, va, buf, func(r mmu.Result) {
			if r.Outcome == mmu.OutcomeBadAddr {
				panic("unmapped vertex")
			}
			d := binary.LittleEndian.Uint32(buf[0:])
			for i := 0; i < int(d); i++ {
				n := binary.LittleEndian.Uint64(buf[4+8*i:])
				if want := neighbor(v, i); n != want {
					panic(fmt.Sprintf("corrupt adjacency: v%d[%d]=%d want %d", v, i, n, want))
				}
				if !seen[n] {
					seen[n] = true
					visited++
					queue = append(queue, n)
				}
			}
			sys.CPU.UserExec(th.HW, 3000, step)
		})
	}
	step()
	sys.RunWhile(func() bool { return !done })
	ms := sys.MMU.Stats()
	// A hardware miss bounced for lack of a free page shows up in both
	// counters; count each miss once.
	return visited, sys.Eng.Now(), ms.HWMisses + ms.OSFaults - ms.HWBounced
}

func main() {
	fmt.Printf("Semi-external BFS: %d vertices x degree %d (%d MiB graph, %d MiB memory)\n\n",
		vertices, degree, vertices*4096/(1<<20), memoryMB)
	var times [2]sim.Time
	for i, scheme := range []kernel.Scheme{kernel.OSDP, kernel.HWDP} {
		v, t, f := bfs(scheme)
		fmt.Printf("%-8v visited %d vertices in %v (%d demand-paging misses)\n",
			scheme, v, t, f)
		times[i] = t
	}
	fmt.Printf("\nHWDP finishes the traversal %.1f%% faster.\n",
		100*(1-float64(times[1])/float64(times[0])))
}
