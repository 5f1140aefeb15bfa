package stream

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/lineproto"
	"repro/internal/pubsub"
	"repro/internal/router"
	"repro/internal/tsdb"
)

func metricPayload(t *testing.T, meas, host string, field string, v float64, sec int64) []byte {
	t.Helper()
	enc, err := lineproto.Encode([]lineproto.Point{{
		Measurement: meas,
		Tags:        map[string]string{"hostname": host, "jobid": "42"},
		Fields:      map[string]lineproto.Value{field: lineproto.Float(v)},
		Time:        time.Unix(sec, 0).UTC(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestAggregates(t *testing.T) {
	a := New(Config{})
	for i, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Handle("metrics/cpu", metricPayload(t, "cpu", "h1", "percent", v, int64(i)))
	}
	stats, processed, malformed := a.Snapshot()
	if processed != 8 || malformed != 0 {
		t.Fatalf("processed %d malformed %d", processed, malformed)
	}
	if len(stats) != 1 {
		t.Fatalf("stats %+v", stats)
	}
	s := stats[0]
	if s.Count != 8 || s.Min != 2 || s.Max != 9 || s.Last != 9 {
		t.Fatalf("%+v", s)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Fatalf("mean %v", s.Mean)
	}
	// Sample stddev of this classic dataset is sqrt(32/7).
	if math.Abs(s.Stddev()-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("stddev %v", s.Stddev())
	}
}

func TestAggregatesPerSeries(t *testing.T) {
	a := New(Config{})
	a.Handle("metrics/cpu", metricPayload(t, "cpu", "h1", "percent", 10, 0))
	a.Handle("metrics/cpu", metricPayload(t, "cpu", "h2", "percent", 20, 0))
	a.Handle("metrics/mem", metricPayload(t, "mem", "h1", "used", 30, 0))
	stats, _, _ := a.Snapshot()
	if len(stats) != 3 {
		t.Fatalf("series %d", len(stats))
	}
	// Sorted by measurement, field, host.
	if stats[0].Measurement != "cpu" || stats[0].Host != "h1" || stats[2].Measurement != "mem" {
		t.Fatalf("%+v", stats)
	}
}

func TestStringFieldsSkipped(t *testing.T) {
	a := New(Config{})
	enc, _ := lineproto.Encode([]lineproto.Point{{
		Measurement: "events",
		Tags:        map[string]string{"hostname": "h1"},
		Fields:      map[string]lineproto.Value{"text": lineproto.String("hello")},
		Time:        time.Unix(0, 0),
	}})
	a.Handle("metrics/events", enc)
	stats, processed, _ := a.Snapshot()
	if processed != 1 || len(stats) != 0 {
		t.Fatalf("%d %+v", processed, stats)
	}
}

func TestMalformedCounted(t *testing.T) {
	a := New(Config{})
	a.Handle("metrics/cpu", []byte("not line protocol"))
	a.Handle("meta/jobstart", []byte("not json"))
	_, _, malformed := a.Snapshot()
	if malformed != 2 {
		t.Fatalf("malformed %d", malformed)
	}
}

func TestOnlineAlarmOncePerOnset(t *testing.T) {
	rule := analysis.Rule{
		Name: "low", Measurement: "likwid_mem_dp", Field: "dp_mflop_s",
		Cond: analysis.Below, Threshold: 100, Timeout: 5 * time.Minute,
	}
	var alarms []Alarm
	a := New(Config{
		Rules:   []analysis.Rule{rule},
		OnAlarm: func(al Alarm) { alarms = append(alarms, al) },
	})
	// Healthy, then a 10-minute dip, recovery, then another dip.
	feed := func(v float64, minute int64) {
		a.Handle("metrics/likwid_mem_dp",
			metricPayload(t, "likwid_mem_dp", "h1", "dp_mflop_s", v, minute*60))
	}
	for m := int64(0); m < 5; m++ {
		feed(5000, m)
	}
	for m := int64(5); m < 16; m++ {
		feed(1, m)
	}
	for m := int64(16); m < 20; m++ {
		feed(5000, m)
	}
	for m := int64(20); m < 30; m++ {
		feed(1, m)
	}
	if len(alarms) != 2 {
		t.Fatalf("alarms %d: %+v", len(alarms), alarms)
	}
	first := alarms[0]
	if first.Host != "h1" || first.JobID != "42" {
		t.Fatalf("%+v", first)
	}
	// Alarm at minute 10 (run start minute 5 + 5m timeout).
	if first.Violation.End.Unix() != 10*60 {
		t.Fatalf("alarm time %v", first.Violation.End)
	}
	if alarms[1].Violation.Start.Unix() != 20*60 {
		t.Fatalf("second onset %v", alarms[1].Violation.Start)
	}
}

func TestJobEvents(t *testing.T) {
	var events []JobEvent
	a := New(Config{OnJob: func(ev JobEvent) { events = append(events, ev) }})
	start, _ := json.Marshal(map[string]interface{}{"jobid": "7", "username": "u", "nodes": []string{"h1"}})
	a.Handle("meta/jobstart", start)
	a.Handle("meta/jobend", start)
	if len(events) != 2 || !events[0].Start || events[1].Start {
		t.Fatalf("%+v", events)
	}
	if events[0].JobID != "7" || events[0].User != "u" {
		t.Fatalf("%+v", events[0])
	}
}

func TestFormatSnapshot(t *testing.T) {
	a := New(Config{})
	a.Handle("metrics/cpu", metricPayload(t, "cpu", "h1", "percent", 42, 0))
	out := a.FormatSnapshot()
	if !strings.Contains(out, "1 points processed") || !strings.Contains(out, "percent") {
		t.Fatalf("%q", out)
	}
}

func TestAttachToLivePublisherViaRouter(t *testing.T) {
	// Full online path: router publishes, analyzer attaches over TCP,
	// alarms fire during ingestion.
	pub, err := pubsub.NewPublisher("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	db := tsdb.NewStore().CreateDatabase("lms")
	rt, err := router.New(router.Config{Primary: router.LocalSink{DB: db}, Publisher: pub})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var alarms []Alarm
	var jobEvents []JobEvent
	rule := analysis.Rule{
		Name: "low", Measurement: "likwid_mem_dp", Field: "dp_mflop_s",
		Cond: analysis.Below, Threshold: 100, Timeout: 3 * time.Minute,
	}
	a := New(Config{
		Rules:   []analysis.Rule{rule},
		OnAlarm: func(al Alarm) { mu.Lock(); alarms = append(alarms, al); mu.Unlock() },
		OnJob:   func(ev JobEvent) { mu.Lock(); jobEvents = append(jobEvents, ev); mu.Unlock() },
	})
	if err := a.Attach(pub.Addr()); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Wait for the subscription to become active by probing through the
	// full path.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_ = rt.IngestContext(context.Background(), []lineproto.Point{{
			Measurement: "probe",
			Tags:        map[string]string{"hostname": "h0"},
			Fields:      map[string]lineproto.Value{"v": lineproto.Float(1)},
			Time:        time.Unix(0, 0),
		}})
		_, processed, _ := a.Snapshot()
		if processed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("analyzer never received the probe")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := rt.JobStart(router.JobSignal{JobID: "9", User: "u", Nodes: []string{"h1"}}); err != nil {
		t.Fatal(err)
	}
	for m := int64(0); m < 6; m++ {
		err := rt.IngestContext(context.Background(), []lineproto.Point{{
			Measurement: "likwid_mem_dp",
			Tags:        map[string]string{"hostname": "h1"},
			Fields:      map[string]lineproto.Value{"dp_mflop_s": lineproto.Float(1)},
			Time:        time.Unix(m*60, 0),
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		nAlarms, nJobs := len(alarms), len(jobEvents)
		mu.Unlock()
		if nAlarms > 0 && nJobs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alarms %d jobEvents %d", nAlarms, nJobs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if alarms[0].Host != "h1" || alarms[0].JobID != "9" {
		t.Fatalf("%+v", alarms[0])
	}
	if jobEvents[0].JobID != "9" || !jobEvents[0].Start {
		t.Fatalf("%+v", jobEvents[0])
	}
}

func TestConcurrentHandle(t *testing.T) {
	a := New(Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			host := fmt.Sprintf("h%d", g)
			for i := 0; i < 100; i++ {
				a.Handle("metrics/cpu", metricPayload(t, "cpu", host, "percent", float64(i), int64(i)))
			}
		}(g)
	}
	wg.Wait()
	stats, processed, _ := a.Snapshot()
	if processed != 800 || len(stats) != 8 {
		t.Fatalf("processed %d series %d", processed, len(stats))
	}
	for _, s := range stats {
		if s.Count != 100 {
			t.Fatalf("%+v", s)
		}
	}
}
