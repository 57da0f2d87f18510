package conformance

import (
	"testing"

	"hotline/internal/shard"
)

func socketSuite(network string) Suite {
	return Suite{
		Name: network,
		NewTransport: func(tb testing.TB, nodes int) shard.Transport {
			f, err := shard.StartLocalFabric(nodes, network, suiteTimeout(tb), nil)
			if err != nil {
				tb.Fatalf("start %s fabric: %v", network, err)
			}
			tb.Cleanup(func() { f.Close() })
			return f.Transport
		},
	}
}

func TestConformanceInproc(t *testing.T) {
	Run(t, Suite{
		Name: "inproc",
		NewTransport: func(tb testing.TB, nodes int) shard.Transport {
			return shard.NewInproc()
		},
	})
}

func TestConformanceUnix(t *testing.T) {
	Run(t, socketSuite("unix"))
}

func TestConformanceTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("unix sockets only in -short (CI deflake contract)")
	}
	Run(t, socketSuite("tcp"))
}

func TestConformanceFaultsUnix(t *testing.T) {
	RunFaults(t, "unix")
}

func TestConformanceFaultsTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("unix sockets only in -short (CI deflake contract)")
	}
	RunFaults(t, "tcp")
}

func TestPipelineUnix(t *testing.T) {
	RunPipeline(t, "unix")
}

func TestPipelineTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("unix sockets only in -short (CI deflake contract)")
	}
	RunPipeline(t, "tcp")
}

func TestRecoveryUnix(t *testing.T) {
	RunRecovery(t, "unix")
}

func TestRecoveryTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("unix sockets only in -short (CI deflake contract)")
	}
	RunRecovery(t, "tcp")
}
