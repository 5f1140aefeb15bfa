package durable

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lineproto"
)

// chunk returns n opaque chunk bytes: this package frames chunks and
// never decodes them, so any bytes of a plausible length stand in for
// what the tsdb codecs would encode.
func chunk(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func sampleSnapshot() *Snapshot {
	return &Snapshot{Measurements: []Measurement{
		{
			Name: "cpu",
			Fields: []FieldSchema{
				{Name: "ctx", Kind: lineproto.KindInt},
				{Name: "user", Kind: lineproto.KindFloat},
			},
			Series: []Series{
				{
					Tags: map[string]string{"hostname": "node01", "cpu": "0"},
					Runs: []*CompRun{
						{
							N: 4, MinTS: -50, MaxTS: 250, RawBytes: 96, Ts: chunk(10, 1),
							Cols: []CompCol{
								{Name: "user", Kind: lineproto.KindFloat, Data: chunk(12, 2)},
								{Name: "ctx", Kind: lineproto.KindInt, Present: []uint64{0b0111}, Data: chunk(4, 3)},
							},
						},
						{
							N: 1, MinTS: 300, MaxTS: 300, RawBytes: 16, Ts: chunk(8, 4),
							Cols: []CompCol{{Name: "user", Kind: lineproto.KindFloat, Data: chunk(8, 5)}},
						},
					},
				},
				{
					// Tag-less series with bool and mixed columns.
					Runs: []*CompRun{{
						N: 2, MinTS: 1, MaxTS: 2, RawBytes: 112, Ts: chunk(9, 6),
						Cols: []CompCol{
							{Name: "up", Kind: lineproto.KindBool, Data: chunk(2, 7)},
							{Name: "mix", Kind: lineproto.KindFloat, Mixed: true,
								Vals: []lineproto.Value{lineproto.Float(1), lineproto.String("two")}},
						},
					}},
				},
			},
		},
		{
			Name:   "events",
			Fields: []FieldSchema{{Name: "msg", Kind: lineproto.KindString}},
			Strs:   []string{"started", "finished"},
			Series: []Series{{
				Tags: map[string]string{"hostname": "node02"},
				Runs: []*CompRun{{
					N: 3, MinTS: 10, MaxTS: 30, RawBytes: 36, Ts: chunk(9, 8),
					Cols: []CompCol{{Name: "msg", Kind: lineproto.KindString, Width: 1, Data: []byte{0b010}}},
				}},
			}},
		},
	}}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleSnapshot()
	if err := WriteSnapshot(nil, dir, 7, want); err != nil {
		t.Fatal(err)
	}
	got, seg, err := LoadLatestSnapshot(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if seg != 7 {
		t.Fatalf("replay floor = %d, want 7", seg)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestSnapshotSupersededCheckpointsRemoved(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(nil, dir, 3, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(nil, dir, 9, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName(3))); !os.IsNotExist(err) {
		t.Fatal("superseded checkpoint still on disk")
	}
	_, seg, err := LoadLatestSnapshot(nil, dir)
	if err != nil || seg != 9 {
		t.Fatalf("latest = %d, %v; want 9", seg, err)
	}
}

// TestSnapshotCorruptRefused damages the newest checkpoint in each way a
// file can fail to load: recovery must fail naming the file and the defect,
// not fall back to an older checkpoint (whose WAL tail is gone in a real
// data directory) or report none.
func TestSnapshotCorruptRefused(t *testing.T) {
	withCRC := func(payload []byte) []byte {
		data := append([]byte(snapMagic), payload...)
		return binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(payload))
	}
	for _, c := range []struct {
		name   string
		damage func([]byte) []byte
		defect string
	}{
		{"flipped byte", func(d []byte) []byte { d[len(d)/2] ^= 0xff; return d }, "CRC mismatch"},
		{"truncated", func(d []byte) []byte { return d[:6] }, "too short"},
		{"retired magic", func(d []byte) []byte { copy(d, "LMSCKP2\n"); return d }, "LMSCKP2"},
		{"undecodable", func([]byte) []byte { return withCRC([]byte{0xff}) }, "decode"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := WriteSnapshot(nil, dir, 2, sampleSnapshot()); err != nil {
				t.Fatal(err)
			}
			// A newer checkpoint written beside the older one, as a crash
			// between its rename and the older one's removal leaves them.
			tmp := t.TempDir()
			if err := WriteSnapshot(nil, tmp, 5, sampleSnapshot()); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(tmp, snapshotName(5)))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, snapshotName(5)), c.damage(data), 0o644); err != nil {
				t.Fatal(err)
			}

			got, seg, err := LoadLatestSnapshot(nil, dir)
			if err == nil {
				t.Fatalf("loaded seg %d (%d measurements) past a damaged newest checkpoint", seg, len(got.Measurements))
			}
			for _, want := range []string{snapshotName(5), c.defect} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, want)
				}
			}
		})
	}
}

func TestSnapshotNoneFound(t *testing.T) {
	s, seg, err := LoadLatestSnapshot(nil, t.TempDir())
	if s != nil || seg != 0 || err != nil {
		t.Fatalf("LoadLatestSnapshot(empty) = %v, %d, %v", s, seg, err)
	}
	s, seg, err = LoadLatestSnapshot(nil, filepath.Join(t.TempDir(), "missing"))
	if s != nil || seg != 0 || err != nil {
		t.Fatalf("LoadLatestSnapshot(missing dir) = %v, %d, %v", s, seg, err)
	}
}

// TestSnapshotSizeHint: WriteSnapshot encodes into a buffer sized by the
// hint, so the hint must cover the payload of the shapes checkpoints are
// made of — a long chunk of metric samples, many short ones with sparse
// string columns, the small sample — without reserving much more than it
// needs.
func TestSnapshotSizeHint(t *testing.T) {
	const n = 20000
	long := &CompRun{N: n, MinTS: 1500000000e9, MaxTS: 1500000000e9 + (n-1)*10e9, RawBytes: 28 * n, Ts: chunk(2600, 1), Cols: []CompCol{
		{Name: "user", Kind: lineproto.KindFloat, Data: chunk(40000, 2)},
		{Name: "ctx", Kind: lineproto.KindInt, Data: chunk(2*n, 3)},
		{Name: "state", Kind: lineproto.KindString, Width: 1, Present: make([]uint64, (n+63)/64), Data: chunk(n/8, 4)},
	}}
	runs := []*CompRun{long}
	for i := 0; i < 200; i++ {
		runs = append(runs, &CompRun{N: 32, MinTS: int64(i) * 320, MaxTS: int64(i)*320 + 310, RawBytes: 1024, Ts: chunk(12, 5), Cols: []CompCol{
			{Name: "user", Kind: lineproto.KindFloat, Data: chunk(40, 6)},
			{Name: "state", Kind: lineproto.KindString, Width: 1, Present: []uint64{1<<32 - 2}, Data: chunk(4, 7)},
		}})
	}
	big := &Snapshot{Measurements: []Measurement{{
		Name:   "cpu",
		Fields: []FieldSchema{{Name: "ctx", Kind: lineproto.KindInt}, {Name: "state", Kind: lineproto.KindString}, {Name: "user", Kind: lineproto.KindFloat}},
		Strs:   []string{"idle", "busy"},
		Series: []Series{{Tags: map[string]string{"hostname": "node01"}, Runs: runs}},
	}}}
	for name, s := range map[string]*Snapshot{"sample": sampleSnapshot(), "long and short chunks": big, "empty": {}} {
		hint, size := snapshotSizeHint(s), len(appendSnapshot(nil, s))
		if hint < size {
			t.Errorf("%s: hint %d below the %d-byte payload: the buffer regrows", name, hint, size)
		}
		if hint > size+size/4+512 {
			t.Errorf("%s: hint %d reserves far more than the %d-byte payload", name, hint, size)
		}
	}
}
