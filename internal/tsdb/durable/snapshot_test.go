package durable

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/lineproto"
)

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
					Runs: []Run{
						{
							Ts: []int64{-50, 100, 100, 250},
							Cols: []Col{
								{Name: "user", Values: Values{Kind: lineproto.KindFloat, Floats: []float64{1.5, 2.5, 0, 4}}},
								{Name: "ctx", Present: []uint64{0b0111}, Values: Values{Kind: lineproto.KindInt, Ints: []int64{-7, 0, 9, 0}}},
							},
						},
						{
							Ts:   []int64{300},
							Cols: []Col{{Name: "user", Values: Values{Kind: lineproto.KindFloat, Floats: []float64{9}}}},
						},
					},
				},
				{
					// Tag-less series with bool and mixed columns.
					Runs: []Run{{
						Ts: []int64{1, 2},
						Cols: []Col{
							{Name: "up", Values: Values{Kind: lineproto.KindBool, Ints: []int64{1, 0}}},
							{Name: "mix", Values: Values{Kind: lineproto.KindFloat, Mixed: true,
								Vals: []lineproto.Value{lineproto.Float(1), lineproto.String("two")}}},
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
				Runs: []Run{{
					Ts:   []int64{10, 20, 30},
					Cols: []Col{{Name: "msg", Values: Values{Kind: lineproto.KindString, StrIDs: []uint32{0, 1, 0}}}},
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

// TestSnapshotCorruptFallsBackToOlder flips a byte in the newest
// checkpoint: recovery must skip it and use the older valid one instead
// of failing outright.
func TestSnapshotCorruptFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	older := sampleSnapshot()
	if err := WriteSnapshot(nil, dir, 2, older); err != nil {
		t.Fatal(err)
	}
	// Re-create a newer checkpoint by hand so the older one survives.
	newer := sampleSnapshot()
	newer.Measurements = newer.Measurements[:1]
	tmp := t.TempDir()
	if err := WriteSnapshot(nil, tmp, 5, newer); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(tmp, snapshotName(5)))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, snapshotName(5)), data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, seg, err := LoadLatestSnapshot(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if seg != 2 {
		t.Fatalf("fell back to %d, want 2", seg)
	}
	if !reflect.DeepEqual(got, older) {
		t.Fatal("fallback snapshot mismatch")
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
// made of — long raw runs of metric samples, compressed chunks, the small
// sample — without reserving much more than it needs.
func TestSnapshotSizeHint(t *testing.T) {
	const n = 20000
	run := Run{Ts: make([]int64, n)}
	user := Col{Name: "user", Values: Values{Kind: lineproto.KindFloat, Floats: make([]float64, n)}}
	ctx := Col{Name: "ctx", Values: Values{Kind: lineproto.KindInt, Ints: make([]int64, n)}}
	state := Col{Name: "state", Present: make([]uint64, (n+63)/64), Values: Values{Kind: lineproto.KindString, StrIDs: make([]uint32, n)}}
	for i := 0; i < n; i++ {
		run.Ts[i] = 1500000000e9 + int64(i)*10e9
		user.Floats[i] = float64(i) / 3
		ctx.Ints[i] = int64(i) * 977
		state.StrIDs[i] = uint32(i % 2)
	}
	run.Cols = []Col{user, ctx, state}
	comp := Run{Comp: &CompRun{N: n, MinTS: 1, MaxTS: 2, Ts: make([]byte, 3000), Cols: []CompCol{
		{Name: "user", Kind: lineproto.KindFloat, Data: make([]byte, 40000)},
		{Name: "state", Kind: lineproto.KindString, Width: 1, Present: make([]uint64, (n+63)/64), Data: make([]byte, 2500)},
	}}}
	big := &Snapshot{Measurements: []Measurement{{
		Name:   "cpu",
		Fields: []FieldSchema{{Name: "ctx", Kind: lineproto.KindInt}, {Name: "state", Kind: lineproto.KindString}, {Name: "user", Kind: lineproto.KindFloat}},
		Strs:   []string{"idle", "busy"},
		Series: []Series{{Tags: map[string]string{"hostname": "node01"}, Runs: []Run{comp, run}}},
	}}}
	for name, s := range map[string]*Snapshot{"sample": sampleSnapshot(), "long runs": big, "empty": {}} {
		hint, size := snapshotSizeHint(s), len(appendSnapshot(nil, s))
		if hint < size {
			t.Errorf("%s: hint %d below the %d-byte payload: the buffer regrows", name, hint, size)
		}
		if hint > size+size/4+512 {
			t.Errorf("%s: hint %d reserves far more than the %d-byte payload", name, hint, size)
		}
	}
}
