package durable

// The reference decoder: the frame read back into []lineproto.Point the
// obvious way, two maps per point. It was the production decoder until the
// shards learned to ingest frames through BatchCursor; it stays here so the
// cursor — accept/reject and content — is held against a decode that
// shares only the byte reader with it (FuzzBatchCursor, batch_test.go).

import (
	"fmt"
	"time"

	"repro/internal/lineproto"
)

// DecodeBatch decodes one AppendBatch payload back into points, strictly:
// every count is checked against the bytes left, unknown value kinds and
// trailing bytes are errors. Structure only — Point.Validate is the
// caller's second step.
func DecodeBatch(payload []byte) ([]lineproto.Point, error) {
	r := &batchReader{b: payload}
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	pts := make([]lineproto.Point, 0, n)
	for i := 0; i < n; i++ {
		var p lineproto.Point
		if p.Measurement, err = r.str(); err != nil {
			return nil, err
		}
		ntags, err := r.count()
		if err != nil {
			return nil, err
		}
		if ntags > 0 {
			p.Tags = make(map[string]string, ntags)
			for j := 0; j < ntags; j++ {
				k, err := r.str()
				if err != nil {
					return nil, err
				}
				v, err := r.str()
				if err != nil {
					return nil, err
				}
				p.Tags[k] = v
			}
		}
		nfields, err := r.count()
		if err != nil {
			return nil, err
		}
		p.Fields = make(map[string]lineproto.Value, nfields)
		for j := 0; j < nfields; j++ {
			k, err := r.str()
			if err != nil {
				return nil, err
			}
			v, err := r.value()
			if err != nil {
				return nil, err
			}
			p.Fields[k] = v
		}
		ns, err := r.fixed64()
		if err != nil {
			return nil, err
		}
		p.Time = time.Unix(0, int64(ns)).UTC()
		pts = append(pts, p)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("durable: %d trailing bytes after batch", len(r.b))
	}
	return pts, nil
}
