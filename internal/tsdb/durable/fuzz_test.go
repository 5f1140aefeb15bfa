package durable

// Fuzzed durable codecs (DESIGN.md §11). Everything here decodes bytes
// that normally sit behind a CRC32 frame — but recovery runs before
// anything can vouch for those CRCs being written by this software, so
// the decoders themselves must hold the line: never panic, never
// over-allocate on a hostile count, and never hand back garbage as a
// valid record.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/lineproto"
)

// frame wraps one payload in the WAL's [len][CRC32][payload] framing.
func frame(dst, payload []byte) []byte {
	var hdr [frameOverhead]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// FuzzWALReplaySegment feeds arbitrary bytes to recovery as the content
// of a WAL segment file. Recovery must never fail or panic — a torn or
// corrupt segment is an expected crash artifact, not an error — and the
// records it accepts, re-framed, must reproduce a byte prefix of the
// segment: replay stops at the first tear and never invents, reorders,
// or resequences data. A second recovery over the repaired log must see
// exactly the same records (the repair is stable).
func FuzzWALReplaySegment(f *testing.F) {
	intact := []byte(segMagic)
	intact = frame(intact, []byte("cpu user=1"))
	intact = frame(intact, bytes.Repeat([]byte{0xab}, 300))
	f.Add(append([]byte(nil), intact...))         // fully intact
	f.Add(intact[:len(intact)-3])                 // torn payload
	f.Add(append(intact, 0xde, 0xad, 0xbe, 0xef)) // trailing garbage
	corrupt := append([]byte(nil), intact...)
	corrupt[len(segMagic)+frameOverhead] ^= 0xff // flip a payload byte
	f.Add(corrupt)
	f.Add([]byte(segMagic))        // empty log
	f.Add([]byte("LMSWAL2\nxxxx")) // wrong magic version
	huge := []byte(segMagic)
	huge = binary.LittleEndian.AppendUint32(huge, 1<<31) // implausible length
	f.Add(binary.LittleEndian.AppendUint32(huge, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("segment larger than the fuzz budget")
		}
		fs := faultfs.New()
		if err := fs.MkdirAll("wal", 0o755); err != nil {
			t.Fatal(err)
		}
		h, err := fs.OpenFile("wal/wal-00000001.log", os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Write(data); err != nil {
			t.Fatal(err)
		}
		h.Close()

		replay := func() [][]byte {
			var got [][]byte
			w, err := OpenWAL("wal", 0, Options{Fsync: FsyncOff, FS: fs}, func(p []byte) error {
				got = append(got, append([]byte(nil), p...))
				return nil
			})
			if err != nil {
				t.Fatalf("recovery failed on arbitrary segment content: %v", err)
			}
			w.Abort()
			return got
		}

		got := replay()
		rebuilt := []byte(segMagic)
		for _, p := range got {
			rebuilt = frame(rebuilt, p)
		}
		if bytes.HasPrefix(data, []byte(segMagic)) {
			if !bytes.HasPrefix(data, rebuilt) {
				t.Fatalf("replayed %d records that are not a byte prefix of the segment", len(got))
			}
		} else if len(got) != 0 {
			t.Fatalf("replayed %d records from a segment with no magic header", len(got))
		}

		again := replay()
		if len(again) != len(got) {
			t.Fatalf("second recovery replayed %d records, first saw %d", len(again), len(got))
		}
		for i := range got {
			if !bytes.Equal(again[i], got[i]) {
				t.Fatalf("second recovery changed record %d", i)
			}
		}
	})
}

// FuzzDecodeBatch: arbitrary bytes through the WAL record codec.
// DecodeBatch must never panic, and an accepted batch must survive the
// canonical re-encode/decode round trip point-for-point — otherwise a
// replayed WAL would rebuild different state than the one that was
// acknowledged.
func FuzzDecodeBatch(f *testing.F) {
	ts := time.Unix(0, 1439856000000000000).UTC()
	pts := []lineproto.Point{
		lineproto.NewPoint(
			"cpu",
			map[string]string{"host": "a", "core": "3"},
			map[string]lineproto.Value{"user": lineproto.Float(1.5), "sys": lineproto.Int(-7)},
			ts,
		),
		lineproto.NewPoint(
			"disk",
			nil,
			map[string]lineproto.Value{
				"label": lineproto.String(`root "fs"`), "full": lineproto.Bool(false)},
			time.Time{},
		),
	}
	seed := AppendBatch(nil, pts, 42)
	f.Add(append([]byte(nil), seed...))
	f.Add(seed[:len(seed)-2])           // torn tail
	f.Add([]byte{0xff, 0xff, 0xff})     // implausible count
	f.Add(binary.AppendUvarint(nil, 0)) // empty batch
	// testdata/fuzz/FuzzDecodeBatch/cluster-writenode-frame adds a replica
	// share as cluster.writeNode put it on the wire (11 enriched collector
	// points, 9 tags each): since the frame is also the peer body, this
	// decoder faces the network, not only a CRC-checked log.

	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := DecodeBatch(payload)
		if err != nil {
			return
		}
		enc := AppendBatch(nil, got, 42)
		rt, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v", err)
		}
		if len(rt) != len(got) {
			t.Fatalf("round trip changed batch size: %d -> %d", len(got), len(rt))
		}
		for i := range got {
			if !rt[i].Equal(got[i]) {
				t.Fatalf("round trip changed point %d", i)
			}
		}
	})
}

// FuzzBatchCursor: arbitrary bytes through the frame cursor — the reader
// every door that receives frames validates with, and the one the shards
// ingest from — held against the reference decoder: it accepts exactly the
// frames DecodeBatch decodes into points Point.Validate passes, presents
// exactly those points (tags and fields strictly ascending, the last of
// duplicate keys winning), finds them again by offset, and never panics.
func FuzzBatchCursor(f *testing.F) {
	pts := samplePoints()
	seed := AppendBatch(nil, pts, 42)
	f.Add(append([]byte(nil), seed...))
	f.Add(seed[:len(seed)-2])           // torn tail
	f.Add([]byte{0xff, 0xff, 0xff})     // implausible count
	f.Add(binary.AppendUvarint(nil, 0)) // empty batch
	f.Add(scrambledFrame(pts, 42))      // unsorted, duplicate tags and fields
	f.Add(AppendBatch(nil, []lineproto.Point{{Measurement: "m"}}, 1))
	f.Add(AppendBatch(nil, []lineproto.Point{lineproto.NewPoint(
		"m",
		map[string]string{"t": ""},
		map[string]lineproto.Value{"v": lineproto.Float(1)},
		time.Time{},
	)}, 1))
	// testdata/fuzz/FuzzBatchCursor/cluster-writenode-frame is the replica
	// share FuzzDecodeBatch is seeded with: written before AppendBatch
	// sorted tags, so every point of it takes the canonicalising path.

	f.Fuzz(func(t *testing.T, payload []byte) {
		want, wantErr := DecodeBatch(payload)
		for i := 0; wantErr == nil && i < len(want); i++ {
			wantErr = want[i].Validate()
		}
		var c BatchCursor
		c.Reset(payload)
		var offsets []int
		for c.Next() {
			if wantErr != nil {
				continue
			}
			i := len(offsets)
			if i >= len(want) {
				t.Fatalf("cursor reads more than the %d points of the frame", len(want))
			}
			checkCursorPoint(t, &c, want[i])
			offsets = append(offsets, c.Offset)
		}
		if (c.Err() == nil) != (wantErr == nil) {
			t.Fatalf("cursor: %v, reference: %v", c.Err(), wantErr)
		}
		if n, err := CheckBatch(payload); (err == nil) != (wantErr == nil) || (err == nil && n != len(want)) {
			t.Fatalf("CheckBatch: %d, %v; reference: %d points, %v", n, err, len(want), wantErr)
		}
		if wantErr != nil {
			return
		}
		if len(offsets) != len(want) || c.Len() != len(want) {
			t.Fatalf("cursor read %d points (declared %d), reference %d", len(offsets), c.Len(), len(want))
		}
		for i := len(offsets) - 1; i >= 0; i-- {
			if !c.Seek(offsets[i]) {
				t.Fatalf("Seek to point %d: %v", i, c.Err())
			}
			checkCursorPoint(t, &c, want[i])
		}
		// The canonical re-encoding holds the same points, in bytes that
		// are a function of the points alone.
		enc := AppendBatch(nil, want, 42)
		if again, err := DecodeBatch(enc); err != nil || !bytes.Equal(AppendBatch(nil, again, 42), enc) {
			t.Fatalf("canonical encoding is not a fixed point (%v)", err)
		}
		c.Reset(enc)
		for i := 0; c.Next(); i++ {
			checkCursorPoint(t, &c, want[i])
		}
		if c.Err() != nil {
			t.Fatalf("canonical encoding refused: %v", c.Err())
		}
	})
}

// FuzzCheckpointDecode: arbitrary bytes through the checkpoint codec.
// decodeSnapshot must never panic, and an accepted snapshot must be a
// fixed point of the codec: encoding it and decoding the result must
// land on the identical byte string, so checkpoint contents cannot
// drift across save/load cycles. The seeds include the payload of the
// golden checkpoint the tsdb package pins (testdata/golden/recheckpoint),
// whose chunks are the real codecs' output.
func FuzzCheckpointDecode(f *testing.F) {
	compSnap := &Snapshot{Measurements: []Measurement{{
		Name:   "cpu",
		Fields: []FieldSchema{{Name: "user", Kind: lineproto.KindFloat}},
		Series: []Series{{
			Tags: map[string]string{"host": "a"},
			Runs: []*CompRun{{
				N: 3, MinTS: 100, MaxTS: 350, RawBytes: 48,
				Ts: []byte{1, 2, 3, 4, 5, 6, 7, 8, 0xaa},
				Cols: []CompCol{{Name: "user", Kind: lineproto.KindFloat,
					Data: []byte{9, 8, 7, 6, 5, 4, 3, 2, 0x55}}},
			}},
		}},
	}}}
	golden, err := filepath.Glob(filepath.Join("..", "testdata", "golden", "recheckpoint", "checkpoint-*.snap"))
	if err != nil || len(golden) != 1 {
		f.Fatalf("golden checkpoint: %v (err %v)", golden, err)
	}
	data, err := os.ReadFile(golden[0])
	if err != nil {
		f.Fatal(err)
	}
	if _, err := decodeSnapshot(data[len(snapMagic) : len(data)-4]); err != nil {
		f.Fatalf("golden checkpoint does not decode: %v", err)
	}
	f.Add(appendSnapshot(nil, sampleSnapshot())) // sparse, mixed, string and bool columns
	f.Add(appendSnapshot(nil, &Snapshot{}))
	f.Add(appendSnapshot(nil, compSnap))
	f.Add(data[len(snapMagic) : len(data)-4])
	f.Add([]byte{0x01})             // one measurement, then nothing
	f.Add([]byte{0xff, 0xff, 0x7f}) // implausible measurement count
	// one measurement, one series, one run of more rows than bytes follow
	f.Add([]byte{1, 1, 'm', 0, 0, 1, 0, 1, 7})

	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := decodeSnapshot(payload)
		if err != nil {
			return
		}
		enc := appendSnapshot(nil, s)
		s2, err := decodeSnapshot(enc)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v", err)
		}
		if enc2 := appendSnapshot(nil, s2); !bytes.Equal(enc, enc2) {
			t.Fatalf("codec is not a fixed point: %d vs %d bytes", len(enc), len(enc2))
		}
	})
}
