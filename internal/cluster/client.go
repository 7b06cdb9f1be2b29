package cluster

import (
	"errors"
	"fmt"
	"slices"

	gen "hatrpc/internal/cluster/gen"
	"hatrpc/internal/engine"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
	"hatrpc/internal/thrift"
)

// ErrNotFound is returned by Client.Get for a key no replica has.
var ErrNotFound = errors.New("cluster: key not found")

// ClientStats counts a client's routing behavior (deterministic under
// one seed).
type ClientStats struct {
	Puts         int64 // acked writes
	Gets         int64 // successful reads (found or typed not-found)
	Refreshes    int64 // shard-map refresh sweeps
	StaleRetries int64 // Stale answers (failover observed; rerouted)
	Failures     int64 // operations that exhausted the attempt budget
}

// Client routes KV operations across the cluster: consistent-hash shard
// selection, a locally cached shard map bootstrapped from the static
// epoch-1 view, and the stale-epoch protocol — a replica answering
// Stale hands back the fresher (epoch, primary), the client adopts it
// and replays immediately; transport-level unavailability triggers a
// full map refresh plus backoff. One Client serves one simulated
// process's traffic (no internal locking).
type Client struct {
	peerSessions
	cfg Config

	view  *ShardMap
	stats ClientStats
	// key is the key of the call in flight as the verbs take it. A call is
	// done with its arguments when it returns: the transport copies what
	// it sends, retransmissions and session replays included.
	key []byte
}

// NewClient builds a cluster client on the given (client-side) engine.
// roster must list the server nodes in cfg.NodeIDs order.
func NewClient(eng *engine.Engine, roster []*simnet.Node, cfg Config) *Client {
	cfg = cfg.withDefaults()
	return &Client{
		peerSessions: newPeerSessions(eng, roster, clientDeadline),
		cfg:          cfg,
		view:         NewShardMap(cfg.Seed, cfg.NodeIDs, cfg.NShards, cfg.RF),
	}
}

// Stats returns the client's counters.
func (c *Client) Stats() ClientStats { return c.stats }

// View returns the client's current routing view (read-only use).
func (c *Client) View() *ShardMap { return c.view }

// clientDeadline bounds every call of a Client.
func clientDeadline(string) sim.Duration { return sim.Duration(clientDeadlineNs) }

// routable reports whether primary names a node of the roster: a reply
// routing a shard anywhere else is malformed, and adopted not at all.
func (c *Client) routable(primary int32) bool { return primary >= 0 && int(primary) < len(c.roster) }

// adopt folds a stale-reply's fresher routing into the cached view.
func (c *Client) adopt(shard int, epoch int64, primary int32) {
	if r := c.view.Shards[shard]; epoch > r.Epoch {
		r.Epoch, r.Primary = epoch, primary
	}
}

// Refresh sweeps the roster for shard maps and merges them into the
// cached view (per shard, the highest epoch wins — a shard's replicas
// always know its freshest view, so merging across nodes converges on
// truth even when most of the roster is down or partitioned away). A map
// routing outside the roster counts as a failed call.
func (c *Client) Refresh(p *sim.Proc) {
	c.stats.Refreshes++
	for i := range c.roster {
		rs, err := c.peer(i).ShardMap(p)
		if err == nil && !slices.ContainsFunc(rs.Shards, func(r *gen.Route) bool { return !c.routable(r.Primary) }) {
			c.view.Merge((*ShardMap)(&rs))
		}
	}
}

// Put writes key=value through the shard's primary, retrying across
// failovers: Stale reroutes and replays immediately, unavailability
// refreshes the map and backs off, fencing/quorum-loss backs off until
// the new view lands. The final error after an exhausted budget wraps
// the last typed cause (errors.Is(err, engine.ErrStaleShardEpoch) holds
// if the budget died chasing a moving epoch).
func (c *Client) Put(p *sim.Proc, key string, value []byte) error {
	shard := ShardOf(key, c.cfg.NShards)
	var lastErr error
	c.key = append(c.key[:0], key...)
	for attempt := 0; attempt < clientAttempts; attempt++ {
		r := c.view.Shards[shard]
		err := c.peer(int(r.Primary)).Put(p, int32(shard), r.Epoch, c.key, value)
		if err == nil {
			c.stats.Puts++
			return nil
		}
		lastErr = c.retry(p, shard, err)
	}
	c.stats.Failures++
	return fmt.Errorf("cluster: put %q: %w", key, lastErr)
}

// Get reads key from the shard's primary with the same retry protocol
// as Put. A missing key is the typed ErrNotFound (a successful read). The
// value is the caller's: later calls never overwrite it.
func (c *Client) Get(p *sim.Proc, key string) ([]byte, error) {
	shard := ShardOf(key, c.cfg.NShards)
	var lastErr error
	c.key = append(c.key[:0], key...)
	for attempt := 0; attempt < clientAttempts; attempt++ {
		r := c.view.Shards[shard]
		v, err := c.peer(int(r.Primary)).Get(p, int32(shard), r.Epoch, c.key)
		if _, missing := err.(*gen.NotFound); err == nil || missing {
			c.stats.Gets++
			if missing {
				return nil, fmt.Errorf("cluster: get %q: %w", key, ErrNotFound)
			}
			return v, nil
		}
		lastErr = c.retry(p, shard, err)
	}
	c.stats.Failures++
	return nil, fmt.Errorf("cluster: get %q: %w", key, lastErr)
}

// retry applies the routing protocol to one failed attempt before the
// caller's next, and returns the cause to report should the budget run
// out.
func (c *Client) retry(p *sim.Proc, shard int, err error) error {
	switch e := err.(type) {
	case *gen.Stale:
		// The replica told us exactly where to go: adopt and replay now.
		if c.routable(e.Primary) {
			c.adopt(shard, e.Epoch, e.Primary)
			c.stats.StaleRetries++
			return engine.ErrStaleShardEpoch
		}
	case *gen.Fenced, *gen.NotQuorum:
		// Failover in progress (fenced) or the replica set can't reach
		// majority: wait for the view change, refreshing as we go.
		p.Sleep(sim.Duration(clientBackoffNs))
		c.Refresh(p)
		return engine.ErrStaleShardEpoch
	case *thrift.TApplicationException:
		// The replica failed the call (a failing store, a malformed
		// request): it says nothing about the routing.
		p.Sleep(sim.Duration(clientBackoffNs))
		return err
	}
	// Transport-level, or a reply that would not decode or route: the
	// primary (or the path to it) is gone. A fresher view may exist
	// anywhere in the roster — sweep for it.
	c.Refresh(p)
	p.Sleep(sim.Duration(clientBackoffNs))
	return err
}
