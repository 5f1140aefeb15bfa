// Package gmond emulates the Ganglia monitoring daemon's XML interface and
// provides the pulling proxy that feeds it into the LMS router.
//
// The paper integrates existing monitoring infrastructure by pulling: "For
// data that needs to be pulled from other sources, like the XML-interface of
// Ganglia's monitoring daemon gmond, a pulling proxy can push the data into
// the router" (Sect. III-B). This package implements both halves: a Server
// that renders the gmond XML dump over TCP (gmond answers every connection
// on port 8649 with a full state dump), and a Proxy that periodically
// connects, parses the XML and pushes the metrics as line-protocol points.
package gmond

import (
	"bufio"
	"encoding/xml"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/lineproto"
)

// Metric is one gmond metric value.
type Metric struct {
	Name  string
	Value float64
	Units string
}

// Server holds the cluster state and serves the XML dump.
type Server struct {
	cluster string

	mu    sync.Mutex
	hosts map[string]map[string]Metric // host -> metric name -> metric
	seen  map[string]time.Time

	ln   net.Listener
	done chan struct{}
	wg   sync.WaitGroup
}

// NewServer creates a gmond emulation for one cluster.
func NewServer(cluster string) *Server {
	return &Server{
		cluster: cluster,
		hosts:   make(map[string]map[string]Metric),
		seen:    make(map[string]time.Time),
	}
}

// Update stores metrics for a host, as if gmond received a UDP metric
// packet from it.
func (s *Server) Update(host string, reported time.Time, metrics []Metric) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hm, ok := s.hosts[host]
	if !ok {
		hm = make(map[string]Metric)
		s.hosts[host] = hm
	}
	for _, m := range metrics {
		hm[m.Name] = m
	}
	s.seen[host] = reported
}

// xmlDoc mirrors the gmond XML structure (the subset the proxy reads).
type xmlDoc struct {
	XMLName  xml.Name     `xml:"GANGLIA_XML"`
	Version  string       `xml:"VERSION,attr"`
	Clusters []xmlCluster `xml:"CLUSTER"`
}

type xmlCluster struct {
	Name  string    `xml:"NAME,attr"`
	Hosts []xmlHost `xml:"HOST"`
}

type xmlHost struct {
	Name     string      `xml:"NAME,attr"`
	Reported int64       `xml:"REPORTED,attr"`
	Metrics  []xmlMetric `xml:"METRIC"`
}

type xmlMetric struct {
	Name  string `xml:"NAME,attr"`
	Val   string `xml:"VAL,attr"`
	Type  string `xml:"TYPE,attr"`
	Units string `xml:"UNITS,attr"`
}

// RenderXML produces the gmond state dump.
func (s *Server) RenderXML() ([]byte, error) {
	s.mu.Lock()
	doc := xmlDoc{Version: "3.7.2", Clusters: []xmlCluster{{Name: s.cluster}}}
	for host, metrics := range s.hosts {
		xh := xmlHost{Name: host, Reported: s.seen[host].Unix()}
		for _, m := range metrics {
			xh.Metrics = append(xh.Metrics, xmlMetric{
				Name:  m.Name,
				Val:   strconv.FormatFloat(m.Value, 'g', -1, 64),
				Type:  "double",
				Units: m.Units,
			})
		}
		doc.Clusters[0].Hosts = append(doc.Clusters[0].Hosts, xh)
	}
	s.mu.Unlock()
	out, err := xml.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("gmond: render: %w", err)
	}
	return append([]byte(xml.Header), out...), nil
}

// ListenAndServe starts the TCP listener; every accepted connection receives
// the full XML dump and is closed, exactly like gmond's port 8649.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("gmond: listen: %w", err)
	}
	s.ln = ln
	s.done = make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				select {
				case <-s.done:
					return
				default:
					continue
				}
			}
			s.wg.Add(1)
			go func(c net.Conn) {
				defer s.wg.Done()
				defer c.Close()
				if dump, err := s.RenderXML(); err == nil {
					w := bufio.NewWriter(c)
					_, _ = w.Write(dump)
					_ = w.Flush()
				}
			}(conn)
		}
	}()
	return nil
}

// Addr returns the listen address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener.
func (s *Server) Close() error {
	if s.ln == nil {
		return nil
	}
	close(s.done)
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// ParseXML decodes a gmond dump into per-host metrics.
func ParseXML(data []byte) (map[string][]Metric, error) {
	var doc xmlDoc
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("gmond: parse: %w", err)
	}
	out := map[string][]Metric{}
	for _, cl := range doc.Clusters {
		for _, h := range cl.Hosts {
			for _, m := range h.Metrics {
				v, err := strconv.ParseFloat(m.Val, 64)
				if err != nil {
					continue // non-numeric gmond metrics are skipped
				}
				out[h.Name] = append(out[h.Name], Metric{Name: m.Name, Value: v, Units: m.Units})
			}
		}
	}
	return out, nil
}

// Proxy pulls a gmond XML endpoint and pushes the metrics into the router.
type Proxy struct {
	// Addr is the gmond TCP address.
	Addr string
	// Ingest receives the converted points (typically a closure over
	// Router.IngestContext, or an HTTP write wrapper).
	Ingest func(pts []lineproto.Point) error
	// MeasurementPrefix prefixes gmond metric names (default "ganglia_").
	MeasurementPrefix string
	// Timeout bounds one pull (default 5s).
	Timeout time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
}

// Pull performs one pull-convert-push cycle and returns the number of
// points pushed.
func (p *Proxy) Pull() (int, error) {
	if p.Ingest == nil {
		return 0, fmt.Errorf("gmond: proxy has no Ingest")
	}
	timeout := p.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	prefix := p.MeasurementPrefix
	if prefix == "" {
		prefix = "ganglia_"
	}
	now := time.Now()
	if p.Now != nil {
		now = p.Now()
	}
	conn, err := net.DialTimeout("tcp", p.Addr, timeout)
	if err != nil {
		return 0, fmt.Errorf("gmond: dial: %w", err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(timeout))
	var data []byte
	buf := make([]byte, 32<<10)
	for {
		n, err := conn.Read(buf)
		data = append(data, buf[:n]...)
		if err != nil {
			break // gmond closes after the dump; EOF is the terminator
		}
		if len(data) > 64<<20 {
			return 0, fmt.Errorf("gmond: dump too large")
		}
	}
	hosts, err := ParseXML(data)
	if err != nil {
		return 0, err
	}
	var pts []lineproto.Point
	for host, metrics := range hosts {
		for _, m := range metrics {
			pts = append(pts, lineproto.NewPoint(
				prefix+m.Name,
				map[string]string{"hostname": host},
				map[string]lineproto.Value{"value": lineproto.Float(m.Value)},
				now,
			))
		}
	}
	if len(pts) == 0 {
		return 0, nil
	}
	if err := p.Ingest(pts); err != nil {
		return 0, fmt.Errorf("gmond: ingest: %w", err)
	}
	return len(pts), nil
}
