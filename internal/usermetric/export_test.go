package usermetric

// Stats returns the number of points transmitted and dropped.
func (c *Client) Stats() (sent, dropped int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent, c.dropped
}
