package wire

import (
	"fmt"
	"sync"
)

// LoopbackCluster assembles a ranks-rank world of single-rank nodes inside
// this process, meshed over real sockets: the loopback interface for "tcp",
// a temp-dir socket per node for "unix". Node i hosts world rank i. Every
// message between two ranks crosses an actual socket, so a loopback world
// exercises exactly the serialization, framing, and shutdown handshake a
// distributed world would — it is the substrate for the wire test suite
// and for running the engine tests with a socket transport.
func LoopbackCluster(network string, ranks int) ([]*Node, error) {
	if err := checkNetwork(network); err != nil {
		return nil, err
	}
	if ranks <= 0 {
		return nil, fmt.Errorf("wire: cluster size must be positive, got %d", ranks)
	}
	rv, err := StartRendezvous(network, DefaultAddr(network), ranks)
	if err != nil {
		return nil, err
	}
	nodes := make([]*Node, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	wg.Add(ranks)
	for i := 0; i < ranks; i++ {
		go func(i int) {
			defer wg.Done()
			nodes[i], errs[i] = Join(network, rv.Addr(), JoinOptions{Rank: i})
		}(i)
	}
	wg.Wait()
	if err := rv.Wait(); err != nil {
		for _, n := range nodes {
			if n != nil {
				n.closeAll()
			}
		}
		return nil, err
	}
	for i, jerr := range errs {
		if jerr != nil {
			for _, n := range nodes {
				if n != nil {
					n.closeAll()
				}
			}
			return nil, fmt.Errorf("wire: loopback node %d: %w", i, jerr)
		}
	}
	return nodes, nil
}
