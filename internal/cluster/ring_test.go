package cluster

import (
	"bytes"
	"reflect"
	"testing"
)

func TestRingDeterministicAcrossInputOrder(t *testing.T) {
	a := NewRing([]string{"http://n1", "http://n2", "http://n3"}, 64)
	b := NewRing([]string{"http://n3", "http://n1", "http://n2", "http://n2"}, 64)
	if a.Generation() != b.Generation() {
		t.Fatalf("generation differs across input order: %x vs %x", a.Generation(), b.Generation())
	}
	if !reflect.DeepEqual(a.Nodes(), b.Nodes()) {
		t.Fatalf("member list differs: %v vs %v", a.Nodes(), b.Nodes())
	}
	for _, key := range []string{PlacementKey("lms", "cpu"), PlacementKey("lms", "memory"), PlacementKey("user_x", "cpu")} {
		if got, want := a.Owners(key, 2), b.Owners(key, 2); !reflect.DeepEqual(got, want) {
			t.Fatalf("owners(%q) differ: %v vs %v", key, got, want)
		}
	}
}

func TestRingGenerationChangesWithMembership(t *testing.T) {
	a := NewRing([]string{"http://n1", "http://n2"}, 64)
	b := NewRing([]string{"http://n1", "http://n2", "http://n3"}, 64)
	if a.Generation() == b.Generation() {
		t.Fatal("different memberships share a generation")
	}
}

func TestRingOwnersDistinctAndCapped(t *testing.T) {
	r := NewRing([]string{"http://n1", "http://n2", "http://n3"}, 64)
	for i := 0; i < 200; i++ {
		key := PlacementKey("lms", "m"+string(rune('a'+i%26))+string(rune('a'+i/26)))
		owners := r.Owners(key, 2)
		if len(owners) != 2 {
			t.Fatalf("want 2 owners, got %v", owners)
		}
		if owners[0] == owners[1] {
			t.Fatalf("duplicate owner for %q: %v", key, owners)
		}
	}
	if got := r.Owners("k", 10); len(got) != 3 {
		t.Fatalf("owner count beyond membership: %v", got)
	}
	if got := r.Owners("k", 0); len(got) != 1 {
		t.Fatalf("zero replication should clamp to 1: %v", got)
	}
}

func TestRingBalance(t *testing.T) {
	nodes := []string{"http://n1", "http://n2", "http://n3", "http://n4"}
	r := NewRing(nodes, 0) // default vnodes
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		m := "measurement-" + string(rune('a'+i%26)) + "-" + string(rune('0'+(i/26)%10)) + "-" + string(rune('0'+i/260))
		counts[r.Owners(PlacementKey("lms", m), 1)[0]]++
	}
	for _, n := range nodes {
		share := float64(counts[n]) / keys
		if share < 0.10 || share > 0.45 {
			t.Fatalf("node %s owns %.1f%% of keys — ring badly imbalanced: %v", n, share*100, counts)
		}
	}
}

func TestPlacementKeyUnambiguous(t *testing.T) {
	if PlacementKey("a", "bc") == PlacementKey("ab", "c") {
		t.Fatal("placement key is ambiguous across db/measurement split")
	}
}

func TestHintCodecRoundTrip(t *testing.T) {
	// The hint record must reproduce db and frame exactly: what recovery
	// replays is byte for byte what the coordinator put on the wire.
	frame := testFrame("cpu", "h1", 3)
	payload := encodeHint("lms", frame)
	h, err := decodeHint(payload)
	if err != nil {
		t.Fatal(err)
	}
	if h.db != "lms" || !bytes.Equal(h.frame, frame) || h.bytes != int64(len(payload)) {
		t.Fatalf("bad hint decode: db=%q bytes=%d frame=%x", h.db, h.bytes, h.frame)
	}
	payload[len(payload)-1] ^= 0xff
	if !bytes.Equal(h.frame, frame) {
		t.Fatal("recovered hint aliases the WAL segment buffer")
	}
	if _, err := decodeHint(payload[:len(payload)-2]); err == nil {
		t.Fatal("truncated hint decoded")
	}
	if _, err := decodeHint([]byte{200}); err == nil {
		t.Fatal("hint with a truncated db name decoded")
	}
}
