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
