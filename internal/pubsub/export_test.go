package pubsub

// Stats returns the number of published (per-subscriber deliveries counted
// once per Publish call) and dropped messages.
func (p *Publisher) Stats() (published, dropped int64) {
	return p.published.Load(), p.dropped.Load()
}
