package dashboard

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/lineproto"
	"repro/internal/tsdb"
)

func TestHistogramBasic(t *testing.T) {
	bins := Histogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5)
	if len(bins) != 5 {
		t.Fatalf("bins %d", len(bins))
	}
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != 11 {
		t.Fatalf("total %d", total)
	}
	// First bin [0,2): values 0,1. Last bin [8,10]: 8,9,10.
	if bins[0].Count != 2 {
		t.Fatalf("first %+v", bins[0])
	}
	if bins[4].Count != 3 {
		t.Fatalf("last %+v", bins[4])
	}
	if bins[0].Lo != 0 || bins[4].Hi != 10 {
		t.Fatalf("range %+v %+v", bins[0], bins[4])
	}
}

func TestHistogramEdges(t *testing.T) {
	if Histogram(nil, 5) != nil {
		t.Error("empty")
	}
	if Histogram([]float64{1}, 0) != nil {
		t.Error("zero bins")
	}
	if Histogram([]float64{math.NaN()}, 3) != nil {
		t.Error("all NaN")
	}
	// Constant series: one bin holding all.
	bins := Histogram([]float64{5, 5, 5}, 4)
	if len(bins) != 1 || bins[0].Count != 3 || bins[0].Lo != 5 || bins[0].Hi != 5 {
		t.Fatalf("%+v", bins)
	}
	// NaNs skipped.
	bins = Histogram([]float64{1, math.NaN(), 3}, 2)
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != 2 {
		t.Fatalf("total %d", total)
	}
}

// Property: bin counts sum to the number of finite values, and every value
// lies inside its bin's range.
func TestHistogramConservationProperty(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	f := func(seed int64) bool {
		_ = seed
		n := r.Intn(200) + 1
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.NormFloat64() * 100
		}
		binCount := r.Intn(20) + 1
		bins := Histogram(vals, binCount)
		total := 0
		for _, b := range bins {
			total += b.Count
			if b.Hi < b.Lo {
				return false
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRenderHistogram(t *testing.T) {
	bins := Histogram([]float64{1, 1, 1, 1, 2, 3}, 2)
	out := RenderHistogram(bins, 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%q", out)
	}
	if !strings.Contains(lines[0], "████████████████████") {
		t.Fatalf("full bar missing: %q", lines[0])
	}
	// Non-zero bucket always gets at least one bar glyph.
	if !strings.Contains(lines[1], "█") {
		t.Fatalf("min bar missing: %q", lines[1])
	}
	if RenderHistogram(nil, 10) != "(no data)\n" {
		t.Fatal("empty rendering")
	}
}

func TestHistogramPanelRendering(t *testing.T) {
	store := tsdb.NewStore()
	db := store.CreateDatabase("lms")
	for i := 0; i < 100; i++ {
		_ = db.WriteBatchContext(context.Background(), []lineproto.Point{lineproto.NewPoint(
			"likwid_mem_dp",
			map[string]string{"hostname": "h1"},
			map[string]lineproto.Value{"dp_mflop_s": lineproto.Float(float64(i % 10))},
			time.Unix(int64(i), 0),
		)})
	}
	p := Panel{
		ID: 1, Title: "FP rate distribution", Type: "histogram",
		Targets: []Target{{Query: "SELECT dp_mflop_s FROM likwid_mem_dp"}},
	}
	out, err := RenderPanel(context.Background(), tsdb.LocalQuerier{Store: store}, "lms", p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "FP rate distribution") || !strings.Contains(out, "n=100") {
		t.Fatalf("%q", out)
	}
	if !strings.Contains(out, "█") {
		t.Fatalf("no bars: %q", out)
	}
	// Histogram panels without targets fail validation.
	d := Dashboard{Title: "x", Rows: []Row{{Panels: []Panel{{ID: 1, Type: "histogram"}}}}}
	if err := d.Validate(); err == nil {
		t.Fatal("target-less histogram accepted")
	}
}
