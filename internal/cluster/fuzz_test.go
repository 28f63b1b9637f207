package cluster

import (
	"testing"

	"clare/internal/wire/wiretest"
)

// FuzzWireParse binds the shared wire fuzz target to the front-end's
// connection handler, over a router and two one-replica shards; the
// corpus's predicate m/2 lives on whichever shard the map assigns it.
func FuzzWireParse(f *testing.F) {
	const shards = 2
	addrs := make([][]string, shards)
	for i := range addrs {
		name := "m"
		if ShardOf("m/2", shards) != i {
			name = "elsewhere"
		}
		_, l := startBackend(f, []testPred{facts(name, 8)})
		addrs[i] = []string{l.Addr().String()}
	}
	wiretest.Fuzz(f, NewServer(newTestRouter(f, addrs, nil)).serveConn)
}
