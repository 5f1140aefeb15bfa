package durable

// Sync flushes appended records to stable storage. Like every other sync
// path, a failure seals the log: the frames' on-disk fate is unknown and
// appending behind them would risk silent loss on replay.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if err := w.syncFile(w.f); err != nil {
		w.sealLocked("fsync", err)
		return err
	}
	w.dirty = false
	w.syncedSeq = w.writeSeq
	return nil
}
