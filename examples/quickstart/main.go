// Quickstart: define a service in hinted IDL (echo.hrpc), generate code
// with hatc, then run a server and client over the simulated RDMA fabric.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	echogen "hatrpc/examples/quickstart/gen"
	"hatrpc/internal/engine"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
	"hatrpc/internal/trdma"
)

// echoServer implements the generated EchoHandler interface.
type echoServer struct{ notified []string }

func (s *echoServer) Ping(p *sim.Proc, msg string) (string, error) {
	return "pong: " + msg, nil
}

func (s *echoServer) Reverse(p *sim.Proc, msg string) (string, error) {
	b := []byte(msg)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b), nil
}

func (s *echoServer) Notify(p *sim.Proc, event string) error {
	s.notified = append(s.notified, event)
	return nil
}

func main() {
	// A two-node simulated cluster: node 0 serves, node 1 calls.
	env := sim.NewEnv(1)
	cluster := simnet.NewCluster(env, simnet.DefaultConfig())
	serverEngine := engine.New(cluster.Node(0), engine.DefaultConfig())
	clientEngine := engine.New(cluster.Node(1), engine.DefaultConfig())

	// Boot the service. The generated hint table (from echo.hrpc:
	// perf_goal=latency, concurrency=1) configures busy polling and
	// Direct-WriteIMM under the hood.
	impl := &echoServer{}
	trdma.NewServer(serverEngine, echogen.EchoHints, echogen.NewEchoProcessor(impl))

	env.Spawn("client", func(p *sim.Proc) {
		tr := trdma.Dial(p, clientEngine, cluster.Node(0), echogen.EchoHints, nil)
		client := echogen.NewEchoClient(tr)

		pong, err := client.Ping(p, "hello HatRPC")
		check(err)
		fmt.Printf("Ping  → %q   (virtual time %s)\n", pong, fmtNs(p.Now()))

		start := p.Now()
		rev, err := client.Reverse(p, "streams fo thgild")
		check(err)
		fmt.Printf("Reverse → %q   (round trip %s)\n", rev, fmtNs(p.Now()-start))

		check(client.Notify(p, "deploy-finished"))

		pl := tr.Plan("Ping")
		mode := "event"
		if pl.Busy {
			mode = "busy"
		}
		fmt.Printf("hint-selected plan for Ping: %s + %s polling\n", pl.Proto, mode)

		env.Stop()
	})
	env.Run()

	fmt.Printf("server received oneway events: %v\n", impl.notified)
}

func fmtNs(t sim.Time) string { return fmt.Sprintf("%.2fµs", float64(t)/1000) }

func check(err error) {
	if err != nil {
		panic(err)
	}
}
