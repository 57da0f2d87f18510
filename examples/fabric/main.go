// Transport fabric: the shard service's cross-node traffic behind a
// Transport seam. The default in-proc path moves rows through shared
// memory; this example swaps in the socket transport — every shard node a
// real NodeServer behind its own unix socket, speaking the length-prefixed
// binary framing — and trains the pipelined Hotline executor over it. The
// socket run must reproduce the in-proc run bit for bit (same losses, zero
// parameter divergence); what changes is that gather and scatter now have
// measured wall clock, reported next to the analytic all-to-all model the
// timing pipelines price.
//
// For real OS processes instead of in-process servers, see
// cmd/hotline-node and `hotline-bench -fabric unix`.
//
//	go run ./examples/fabric
package main

import (
	"fmt"
	"log"

	"hotline"
)

func main() {
	cfg := hotline.CriteoKaggle()
	const depth, iters, batch = 2, 6, 256

	fmt.Println("Transport fabric (Criteo Kaggle, depth-2 pipeline):")
	fmt.Printf("%-6s %-7s %16s %17s %12s %10s\n",
		"nodes", "fabric", "gather wall/iter", "scatter wall/iter", "a2a KB/iter", "max diff")
	for _, nodes := range []int{2, 4} {
		for _, network := range []string{"inproc", "unix"} {
			m, err := hotline.MeasureFabric(cfg, hotline.FabricProbe{
				Nodes: nodes, Depth: depth, Iters: iters, Batch: batch, Network: network,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-6d %-7s %16s %17s %12.1f %10g\n",
				nodes, m.Fabric, m.GatherWallPerIter, m.ScatterWallPerIter,
				float64(m.A2ABytesPerIter)/1024, m.MaxStateDiff)
		}
	}
	fmt.Println("\nmax diff 0: the socket fabric trained bit-identically to the in-proc path;")
	fmt.Println("the wall columns are real kernel-crossing time the analytic model does not see.")
}
