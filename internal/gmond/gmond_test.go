package gmond

import (
	"context"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lineproto"
	"repro/internal/router"
	"repro/internal/tsdb"
)

func now() time.Time { return time.Unix(2000, 0).UTC() }

func TestRenderParseRoundTrip(t *testing.T) {
	s := NewServer("emmy")
	s.Update("h1", now(), []Metric{
		{Name: "load_one", Value: 1.5, Units: ""},
		{Name: "bytes_in", Value: 2.5e6, Units: "bytes/sec"},
	})
	s.Update("h2", now(), []Metric{{Name: "load_one", Value: 0.25}})
	data, err := s.RenderXML()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `CLUSTER NAME="emmy"`) {
		t.Fatalf("xml %s", data)
	}
	hosts, err := ParseXML(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 2 {
		t.Fatalf("hosts %v", hosts)
	}
	var names []string
	for _, m := range hosts["h1"] {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	if len(names) != 2 || names[0] != "bytes_in" || names[1] != "load_one" {
		t.Fatalf("h1 metrics %v", names)
	}
	for _, m := range hosts["h1"] {
		if m.Name == "bytes_in" && m.Value != 2.5e6 {
			t.Fatalf("value %v", m.Value)
		}
	}
}

func TestUpdateOverwritesMetric(t *testing.T) {
	s := NewServer("c")
	s.Update("h1", now(), []Metric{{Name: "load_one", Value: 1}})
	s.Update("h1", now(), []Metric{{Name: "load_one", Value: 2}})
	data, _ := s.RenderXML()
	hosts, _ := ParseXML(data)
	if len(hosts["h1"]) != 1 || hosts["h1"][0].Value != 2 {
		t.Fatalf("%v", hosts["h1"])
	}
}

func TestParseXMLSkipsNonNumeric(t *testing.T) {
	xmlData := []byte(`<GANGLIA_XML VERSION="3.7.2"><CLUSTER NAME="c">
<HOST NAME="h1" REPORTED="1"><METRIC NAME="os_name" VAL="Linux" TYPE="string" UNITS=""/>
<METRIC NAME="load_one" VAL="0.5" TYPE="double" UNITS=""/></HOST></CLUSTER></GANGLIA_XML>`)
	hosts, err := ParseXML(xmlData)
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts["h1"]) != 1 || hosts["h1"][0].Name != "load_one" {
		t.Fatalf("%v", hosts)
	}
}

func TestParseXMLError(t *testing.T) {
	if _, err := ParseXML([]byte("not xml")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestTCPDump(t *testing.T) {
	s := NewServer("c")
	s.Update("h1", now(), []Metric{{Name: "load_one", Value: 3}})
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Proxy against the live server.
	var mu sync.Mutex
	var got []lineproto.Point
	p := &Proxy{
		Addr: s.Addr(),
		Ingest: func(pts []lineproto.Point) error {
			mu.Lock()
			got = append(got, pts...)
			mu.Unlock()
			return nil
		},
		Now: now,
	}
	n, err := p.Pull()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("pushed %d", n)
	}
	mu.Lock()
	defer mu.Unlock()
	pt := got[0]
	if pt.Measurement != "ganglia_load_one" {
		t.Fatalf("measurement %q", pt.Measurement)
	}
	if pt.Tag("hostname") != "h1" {
		t.Fatalf("tags %v", pt.Tags)
	}
	if fieldOf(pt, "value").FloatVal() != 3 {
		t.Fatalf("value %v", pt.Fields)
	}
	if !pt.Time.Equal(now()) {
		t.Fatalf("time %v", pt.Time)
	}
}

func TestProxyIntoRouterEnrichment(t *testing.T) {
	// Full pull path: gmond -> proxy -> router -> tsdb, with job tagging.
	s := NewServer("c")
	s.Update("h1", now(), []Metric{{Name: "load_one", Value: 1.25}})
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	store := tsdb.NewStore()
	db := store.CreateDatabase("lms")
	rt, err := router.New(router.Config{Primary: router.LocalSink{DB: db}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.JobStart(router.JobSignal{JobID: "77", User: "alice", Nodes: []string{"h1"}}); err != nil {
		t.Fatal(err)
	}
	p := &Proxy{Addr: s.Addr(), Ingest: func(pts []lineproto.Point) error { return rt.IngestContext(context.Background(), pts) }, Now: now}
	if _, err := p.Pull(); err != nil {
		t.Fatal(err)
	}
	res, err := db.SelectContext(context.Background(), tsdb.Query{Measurement: "ganglia_load_one", Filter: tsdb.TagFilter{"jobid": "77"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Rows[0].Values[0].FloatVal() != 1.25 {
		t.Fatalf("%+v", res)
	}
}

func TestProxyConfigErrors(t *testing.T) {
	p := &Proxy{Addr: "127.0.0.1:1"}
	if _, err := p.Pull(); err == nil {
		t.Fatal("missing ingest accepted")
	}
	p.Ingest = func([]lineproto.Point) error { return nil }
	if _, err := p.Pull(); err == nil {
		t.Fatal("dead endpoint accepted")
	}
}

func TestProxyEmptyDump(t *testing.T) {
	s := NewServer("empty")
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	called := false
	p := &Proxy{Addr: s.Addr(), Ingest: func([]lineproto.Point) error { called = true; return nil }}
	n, err := p.Pull()
	if err != nil || n != 0 {
		t.Fatalf("%d %v", n, err)
	}
	if called {
		t.Fatal("ingest called for empty dump")
	}
}

func TestProxyMeasurementPrefix(t *testing.T) {
	s := NewServer("c")
	s.Update("h1", now(), []Metric{{Name: "m", Value: 1}})
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var got string
	p := &Proxy{Addr: s.Addr(), MeasurementPrefix: "g_",
		Ingest: func(pts []lineproto.Point) error { got = pts[0].Measurement; return nil }}
	if _, err := p.Pull(); err != nil {
		t.Fatal(err)
	}
	if got != "g_m" {
		t.Fatalf("measurement %q", got)
	}
}

func TestServerCloseIdempotentWithoutListen(t *testing.T) {
	s := NewServer("c")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Addr() != "" {
		t.Fatal("addr without listen")
	}
}

func TestProxyRunLoop(t *testing.T) {
	s := NewServer("c")
	s.Update("h1", now(), []Metric{{Name: "m", Value: 1}})
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var mu sync.Mutex
	count := 0
	p := &Proxy{Addr: s.Addr(), Ingest: func([]lineproto.Point) error {
		mu.Lock()
		count++
		mu.Unlock()
		return nil
	}}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { p.Run(10*time.Millisecond, stop, nil); close(done) }()
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		c := count
		mu.Unlock()
		if c >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("proxy loop stalled")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	close(stop)
	<-done
}

// fieldOf returns p's value of the field key, the zero Value when it has none.
func fieldOf(p lineproto.Point, key string) lineproto.Value {
	for _, f := range p.Fields {
		if f.Key == key {
			return f.Value
		}
	}
	return lineproto.Value{}
}
