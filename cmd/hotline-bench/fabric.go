package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"hotline/internal/cost"
	"hotline/internal/data"
	"hotline/internal/pipeline"
	"hotline/internal/shard"
)

// fabricReadyTimeout bounds how long the coordinator waits for a spawned
// hotline-node worker to print its ready line.
const fabricReadyTimeout = 15 * time.Second

// runFabric is the multi-process coordinator mode: it spawns one real
// hotline-node OS process per shard node, dials the fabric, trains the
// pipelined Hotline executor over it, and prints the measured gather/
// scatter wall clock next to the analytic all-to-all model and the
// bit-parity evidence against the in-proc reference run.
//
// When the hotline-node binary cannot be found (e.g. under `go run`), the
// coordinator falls back to an in-process fabric — every node still sits
// behind its own socket and NodeServer, only the process boundary is
// missing — and says so.
func runFabric(network string, nodes, depth, iters int, timeouts shard.FabricTimeouts) {
	if network != "unix" && network != "tcp" {
		fmt.Fprintf(os.Stderr, "hotline-bench: -fabric must be unix or tcp, got %q\n", network)
		os.Exit(2)
	}
	if nodes < 2 {
		fmt.Fprintf(os.Stderr, "hotline-bench: -fabric-nodes must be >= 2, got %d\n", nodes)
		os.Exit(2)
	}
	const batch = 256

	tr, cleanup, mode := dialFabricWorkers(network, nodes, timeouts)
	defer cleanup()

	m, err := pipeline.MeasureFabric(data.CriteoKaggle(), pipeline.FabricProbe{
		Nodes: nodes, Depth: depth, Iters: iters, Batch: batch, Transport: tr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hotline-bench:", err)
		os.Exit(1)
	}
	sys := cost.PaperCluster(nodes)
	analytic := pipeline.AllToAllTime(shard.Stats{Nodes: nodes, GatherBytes: m.A2ABytesPerIter}, sys)
	fmt.Printf("fabric:            %s (%s)\n", m.Fabric, mode)
	fmt.Printf("nodes x depth:     %d x %d (%d iters, batch %d)\n", m.Nodes, m.Depth, m.Iters, batch)
	fmt.Printf("gather wall/iter:  %s\n", m.GatherWallPerIter)
	fmt.Printf("scatter wall/iter: %s\n", m.ScatterWallPerIter)
	fmt.Printf("a2a KB/iter:       %.1f (analytic all-to-all %s)\n", float64(m.A2ABytesPerIter)/1024, analytic)
	fmt.Printf("final loss:        %v\n", m.FinalLoss)
	fmt.Printf("max state diff:    %g vs in-proc reference", m.MaxStateDiff)
	if m.MaxStateDiff == 0 {
		fmt.Printf(" (bit-identical)")
	}
	fmt.Println()
}

// dialFabricWorkers connects a transport whose peers are real hotline-node
// processes, or an in-process fabric when the worker binary is missing.
// The returned cleanup tears down whichever was built.
func dialFabricWorkers(network string, nodes int, timeouts shard.FabricTimeouts) (shard.Transport, func(), string) {
	bin, err := findNodeBinary()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hotline-bench: %v; falling back to in-process node servers\n", err)
		fab, ferr := shard.StartLocalFabric(nodes, network, timeouts.IO, nil)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "hotline-bench:", ferr)
			os.Exit(1)
		}
		return fab.Transport, func() { fab.Close() }, "in-process fallback"
	}

	dir, err := os.MkdirTemp("", "hlfab")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hotline-bench:", err)
		os.Exit(1)
	}
	procs := make([]*exec.Cmd, 0, nodes)
	addrs := make([]string, 0, nodes)
	cleanup := func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Signal(syscall.SIGTERM)
			}
		}
		for _, p := range procs {
			p.Wait()
		}
		os.RemoveAll(dir)
	}
	for i := 0; i < nodes; i++ {
		listen := filepath.Join(dir, fmt.Sprintf("node%d.sock", i))
		if network == "tcp" {
			listen = "127.0.0.1:0"
		}
		cmd := exec.Command(bin, "-node", fmt.Sprint(i), "-network", network, "-listen", listen,
			"-io-timeout", timeouts.IO.String())
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hotline-bench: spawn hotline-node:", err)
			cleanup()
			os.Exit(1)
		}
		procs = append(procs, cmd)
		addr, err := awaitReady(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hotline-bench: node %d: %v\n", i, err)
			cleanup()
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "hotline-bench: node %d ready on %s %s (pid %d)\n", i, network, addr, cmd.Process.Pid)
		addrs = append(addrs, addr)
	}
	tr, err := shard.DialFabric(shard.FabricConfig{Network: network, Addrs: addrs, Timeouts: timeouts})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hotline-bench: dial fabric:", err)
		cleanup()
		os.Exit(1)
	}
	full := func() {
		tr.Close()
		cleanup()
	}
	return tr, full, fmt.Sprintf("%d worker processes", nodes)
}

// findNodeBinary locates hotline-node next to this executable or on PATH.
func findNodeBinary() (string, error) {
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "hotline-node")
		if info, err := os.Stat(cand); err == nil && !info.IsDir() {
			return cand, nil
		}
	}
	if p, err := exec.LookPath("hotline-node"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("hotline-node binary not found next to hotline-bench or on PATH")
}

// awaitReady scans a worker's stdout for its ready line and returns the
// listen address it reports (TCP workers on port 0 report the real port).
func awaitReady(out interface{ Read([]byte) (int, error) }) (string, error) {
	type res struct {
		addr string
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, " ready on "); i >= 0 && strings.HasPrefix(line, "hotline-node:") {
				fields := strings.Fields(line[i:])
				ch <- res{addr: fields[len(fields)-1]}
				return
			}
		}
		err := sc.Err()
		if err == nil {
			err = fmt.Errorf("worker exited before its ready line")
		}
		ch <- res{err: err}
	}()
	select {
	case r := <-ch:
		return r.addr, r.err
	case <-time.After(fabricReadyTimeout):
		return "", fmt.Errorf("worker not ready after %s", fabricReadyTimeout)
	}
}
