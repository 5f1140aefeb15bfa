package cluster

import "context"

// DrainHints synchronously replays every pending hint, returning the
// first per-peer failure (nil when all queues emptied); production relies
// on the drain job.
func (c *Cluster) DrainHints(ctx context.Context) error {
	_, err := c.drainPeers(ctx)
	return err
}
