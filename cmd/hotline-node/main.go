// Command hotline-node runs one shard node of the multi-process training
// fabric: a NodeServer that holds the authoritative copy of the embedding
// rows its node owns and answers the coordinator's framed fetch/push
// requests over a unix or TCP socket.
//
// The coordinator (hotline-bench -fabric, or any program dialing
// shard.DialFabric) connects one socket per node and streams gather
// fetches and pre-reduced scatter updates through it; this process stays
// up until it is signalled (SIGINT/SIGTERM) or its listener is closed.
//
// Usage:
//
//	hotline-node -node 1 -network unix -listen /tmp/hotline-fabric/node1.sock
//	hotline-node -node 0 -network tcp  -listen 127.0.0.1:0
//
// On startup the node prints one line the coordinator can parse:
//
//	hotline-node: node 1 ready on unix /tmp/hotline-fabric/node1.sock
//
// (with -listen 127.0.0.1:0 the printed TCP address carries the actual
// port the kernel assigned). On shutdown it prints the traffic it served:
//
//	hotline-node: node 1 done: 310 fetch frames, 152 push frames, 12040 rows served, 8216 rows held
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"hotline/internal/shard"
)

func main() {
	node := flag.Int("node", 0, "this node's id in the fabric (owner index)")
	network := flag.String("network", "unix", `socket family: "unix" or "tcp"`)
	listen := flag.String("listen", "", "address to listen on (unix socket path, or host:port; port 0 picks a free port)")
	ioTimeout := flag.Duration("io-timeout", shard.DefaultIOTimeout,
		"per-frame IO deadline: reading a started request's payload and writing its reply must each finish within this (0 = unbounded; idle waits between requests are never bounded)")
	flag.Parse()

	if *listen == "" {
		fmt.Fprintln(os.Stderr, "hotline-node: -listen is required")
		os.Exit(2)
	}
	if *ioTimeout < 0 {
		fmt.Fprintf(os.Stderr, "hotline-node: -io-timeout must be >= 0, got %s\n", *ioTimeout)
		os.Exit(2)
	}
	srv, err := shard.ServeNode(*node, *network, *listen, *ioTimeout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hotline-node:", err)
		os.Exit(1)
	}
	fmt.Printf("hotline-node: node %d ready on %s %s\n", srv.Node(), *network, srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "hotline-node:", err)
	}
	st := srv.Stats()
	fmt.Printf("hotline-node: node %d done: %d fetch frames, %d push frames, %d rows served, %d rows held\n",
		st.Node, st.FetchFrames, st.PushFrames, st.RowsServed, st.RowsHeld)
}
