package collector

// Stats returns collected point and failed push counts.
func (a *Agent) Stats() (collected, sendFails int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.collected, a.sendFails
}
