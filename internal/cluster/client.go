package cluster

import (
	"errors"
	"fmt"

	"hatrpc/internal/engine"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// ErrNotFound is returned by Client.Get for a key no replica has.
var ErrNotFound = errors.New("cluster: key not found")

// ClientStats counts a client's routing behavior (deterministic under
// one seed).
type ClientStats struct {
	Puts         int64 // acked writes
	Gets         int64 // successful reads (found or typed not-found)
	Refreshes    int64 // shard-map refresh sweeps
	StaleRetries int64 // stStale answers (failover observed; rerouted)
	Failures     int64 // operations that exhausted the attempt budget
}

// Client routes KV operations across the cluster: consistent-hash shard
// selection, a locally cached shard map bootstrapped from the static
// epoch-1 view, and the stale-epoch protocol — a replica answering
// stStale hands back the fresher (epoch, primary), the client adopts it
// and replays immediately; transport-level unavailability triggers a
// full map refresh plus backoff. One Client serves one simulated
// process's traffic (no internal locking).
type Client struct {
	peerSessions
	cfg Config

	view  *ShardMap
	stats ClientStats
	// req is the put/get request buffer every call re-encodes into. A call
	// is done with its request when it returns: the transport copies what
	// it sends, retransmissions and session replays included.
	req []byte
}

// NewClient builds a cluster client on the given (client-side) engine.
// roster must list the server nodes in cfg.NodeIDs order.
func NewClient(eng *engine.Engine, roster []*simnet.Node, cfg Config) *Client {
	cfg = cfg.withDefaults()
	return &Client{
		peerSessions: newPeerSessions(eng, roster),
		cfg:          cfg,
		view:         NewShardMap(cfg.Seed, cfg.NodeIDs, cfg.NShards, cfg.RF),
	}
}

// Stats returns the client's counters.
func (c *Client) Stats() ClientStats { return c.stats }

// View returns the client's current routing view (read-only use).
func (c *Client) View() *ShardMap { return c.view }

// call performs one idempotent RPC to a cluster node under the client's
// per-attempt deadline.
func (c *Client) call(p *sim.Proc, peer int, fn uint32, req []byte) ([]byte, error) {
	return c.callPeerDL(p, peer, fn, req, clientDeadlineNs)
}

// adopt folds a stale-reply's fresher routing into the cached view.
func (c *Client) adopt(shard int, epoch uint64, primary int32) {
	if epoch > c.view.Shards[shard].Epoch {
		c.view.Shards[shard].Epoch = epoch
		c.view.Shards[shard].Primary = primary
	}
}

// Refresh sweeps the roster for shard maps and merges them into the
// cached view (per shard, the highest epoch wins — a shard's replicas
// always know its freshest view, so merging across nodes converges on
// truth even when most of the roster is down or partitioned away).
func (c *Client) Refresh(p *sim.Proc) {
	c.stats.Refreshes++
	for i := range c.roster {
		resp, err := c.call(p, i, FnShardMap, nil)
		if err == nil && len(resp) >= 1 && resp[0] == stOK {
			if m, derr := DecodeShardMap(resp[1:]); derr == nil {
				c.view.Merge(m)
			}
		}
		c.recycle(i, resp)
	}
}

// Put writes key=value through the shard's primary, retrying across
// failovers: stStale reroutes and replays immediately, unavailability
// refreshes the map and backs off, fencing/quorum-loss backs off until
// the new view lands. The final error after an exhausted budget wraps
// the last typed cause (errors.Is(err, engine.ErrStaleShardEpoch) holds
// if the budget died chasing a moving epoch).
func (c *Client) Put(p *sim.Proc, key string, value []byte) error {
	shard := ShardOf(key, c.cfg.NShards)
	var lastErr error
	for attempt := 0; attempt < clientAttempts; attempt++ {
		info := c.view.Shards[shard]
		c.req = appendPut(c.req[:0], putReq{Shard: uint16(shard), Epoch: info.Epoch, Key: key, Value: value})
		resp, err := c.call(p, int(info.Primary), FnClusterPut, c.req)
		st, cont := c.step(p, shard, resp, err, &lastErr)
		c.recycle(int(info.Primary), resp)
		if !cont {
			if st == stOK {
				c.stats.Puts++
				return nil
			}
			break
		}
	}
	c.stats.Failures++
	if lastErr == nil {
		lastErr = engine.ErrDeadline
	}
	return fmt.Errorf("cluster: put %q: %w", key, lastErr)
}

// Get reads key from the shard's primary with the same retry protocol
// as Put. A missing key is the typed ErrNotFound (a successful read). The
// value is a window onto the reply buffer, which Get hands over to the
// caller instead of recycling it: later calls never overwrite it.
func (c *Client) Get(p *sim.Proc, key string) ([]byte, error) {
	shard := ShardOf(key, c.cfg.NShards)
	var lastErr error
	for attempt := 0; attempt < clientAttempts; attempt++ {
		info := c.view.Shards[shard]
		c.req = appendGet(c.req[:0], getReq{Shard: uint16(shard), Epoch: info.Epoch, Key: key})
		resp, err := c.call(p, int(info.Primary), FnClusterGet, c.req)
		if _, cont := c.step(p, shard, resp, err, &lastErr); cont {
			c.recycle(int(info.Primary), resp)
			continue
		}
		v, found, derr := decodeGetResp(resp)
		if derr != nil || !found {
			c.recycle(int(info.Primary), resp)
		}
		if derr != nil {
			// A malformed reply says nothing about the key: retry, as stErr does.
			lastErr = derr
			p.Sleep(sim.Duration(clientBackoffNs))
			continue
		}
		c.stats.Gets++
		if !found {
			return nil, fmt.Errorf("cluster: get %q: %w", key, ErrNotFound)
		}
		return v, nil
	}
	c.stats.Failures++
	if lastErr == nil {
		lastErr = engine.ErrDeadline
	}
	return nil, fmt.Errorf("cluster: get %q: %w", key, lastErr)
}

// step classifies one attempt's outcome and applies the routing
// protocol. Returns the status byte (when a response arrived) and
// whether the caller should retry.
func (c *Client) step(p *sim.Proc, shard int, resp []byte, err error, lastErr *error) (byte, bool) {
	switch {
	case err != nil:
		// Transport-level: the primary (or the path to it) is gone. A
		// fresher view may exist anywhere in the roster — sweep for it.
		*lastErr = err
		c.Refresh(p)
		p.Sleep(sim.Duration(clientBackoffNs))
		return 0, true
	case len(resp) < 1:
		*lastErr = engine.ErrDeadline
		p.Sleep(sim.Duration(clientBackoffNs))
		return 0, true
	case resp[0] == stOK:
		return stOK, false
	case resp[0] == stStale:
		// The replica told us exactly where to go: adopt and replay now.
		if e, pr, ok := decodeStale(resp); ok {
			c.adopt(shard, e, pr)
		}
		c.stats.StaleRetries++
		*lastErr = engine.ErrStaleShardEpoch
		return stStale, true
	case resp[0] == stFenced || resp[0] == stNotQuorum:
		// Failover in progress (fenced) or the replica set can't reach
		// majority: wait for the view change, refreshing as we go.
		*lastErr = engine.ErrStaleShardEpoch
		p.Sleep(sim.Duration(clientBackoffNs))
		c.Refresh(p)
		return resp[0], true
	default:
		*lastErr = fmt.Errorf("cluster: status %d", resp[0])
		p.Sleep(sim.Duration(clientBackoffNs))
		return resp[0], true
	}
}
