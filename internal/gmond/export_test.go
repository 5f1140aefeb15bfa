package gmond

import "time"

// Run pulls every interval until stop is closed; errors are delivered to
// onError (may be nil).
func (p *Proxy) Run(interval time.Duration, stop <-chan struct{}, onError func(error)) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := p.Pull(); err != nil && onError != nil {
				onError(err)
			}
		case <-stop:
			return
		}
	}
}
