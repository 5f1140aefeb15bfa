// Package pubsub provides a ZeroMQ-style PUB/SUB message fabric over plain
// TCP.
//
// The LMS router (paper Sect. III-B) publishes all metrics and meta
// information (job starts, tags, ...) via ZeroMQ so that aggregators and
// stream analyzers can attach without touching the ingest path. This package
// reproduces the ZeroMQ semantics LMS relies on:
//
//   - topic-prefix subscriptions: a subscriber receives every message whose
//     topic starts with one of its subscribed prefixes ("" subscribes to all),
//   - fire-and-forget fan-out: a slow subscriber never blocks the publisher;
//     once its in-flight queue exceeds the high-water mark, messages to it are
//     dropped (ZeroMQ PUB behaviour),
//   - per-subscriber FIFO ordering of delivered messages.
//
// Wire format (newline-framed, human-readable like the rest of LMS):
//
//	subscriber -> publisher:  SUB <prefix>\n
//	publisher -> subscriber:  MSG <topic> <payload-len>\n<payload>\n
package pubsub

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultHighWaterMark is the per-subscriber queue capacity before messages
// are dropped, mirroring ZeroMQ's ZMQ_SNDHWM default magnitude (scaled down
// for tests).
const DefaultHighWaterMark = 1000

// Message is one published datum.
type Message struct {
	Topic   string
	Payload []byte
}

// Publisher is the PUB side. The zero value is not usable; call NewPublisher.
type Publisher struct {
	ln   net.Listener
	hwm  int
	mu   sync.Mutex
	subs map[*subscriberConn]struct{}
	done chan struct{}

	published atomic.Int64
	dropped   atomic.Int64
	wg        sync.WaitGroup
}

type subscriberConn struct {
	conn     net.Conn
	out      chan Message
	mu       sync.Mutex
	prefixes map[string]struct{}
}

func (s *subscriberConn) wants(topic string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for p := range s.prefixes {
		if strings.HasPrefix(topic, p) {
			return true
		}
	}
	return false
}

// NewPublisher starts a publisher listening on addr (e.g. "127.0.0.1:0").
// hwm <= 0 selects DefaultHighWaterMark.
func NewPublisher(addr string, hwm int) (*Publisher, error) {
	if hwm <= 0 {
		hwm = DefaultHighWaterMark
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pubsub: listen: %w", err)
	}
	p := &Publisher{
		ln:   ln,
		hwm:  hwm,
		subs: make(map[*subscriberConn]struct{}),
		done: make(chan struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the listen address (useful with port 0).
func (p *Publisher) Addr() string { return p.ln.Addr().String() }

// SubscriberCount returns the number of connected subscribers.
func (p *Publisher) SubscriberCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.subs)
}

func (p *Publisher) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			select {
			case <-p.done:
				return
			default:
				continue
			}
		}
		sc := &subscriberConn{
			conn:     conn,
			out:      make(chan Message, p.hwm),
			prefixes: make(map[string]struct{}),
		}
		p.mu.Lock()
		p.subs[sc] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go p.readLoop(sc)
		go p.writeLoop(sc)
	}
}

func (p *Publisher) removeSub(sc *subscriberConn) {
	p.mu.Lock()
	if _, ok := p.subs[sc]; ok {
		delete(p.subs, sc)
		close(sc.out)
	}
	p.mu.Unlock()
	_ = sc.conn.Close()
}

// readLoop consumes SUB commands from the subscriber.
func (p *Publisher) readLoop(sc *subscriberConn) {
	defer p.wg.Done()
	defer p.removeSub(sc)
	r := bufio.NewReader(sc.conn)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "SUB "):
			sc.mu.Lock()
			sc.prefixes[line[4:]] = struct{}{}
			sc.mu.Unlock()
		case line == "SUB":
			sc.mu.Lock()
			sc.prefixes[""] = struct{}{}
			sc.mu.Unlock()
		}
	}
}

func (p *Publisher) writeLoop(sc *subscriberConn) {
	defer p.wg.Done()
	w := bufio.NewWriter(sc.conn)
	for msg := range sc.out {
		if _, err := fmt.Fprintf(w, "MSG %s %d\n", msg.Topic, len(msg.Payload)); err != nil {
			return
		}
		if _, err := w.Write(msg.Payload); err != nil {
			return
		}
		if err := w.WriteByte('\n'); err != nil {
			return
		}
		// Flush when the queue drains so batches coalesce into few writes.
		if len(sc.out) == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
	_ = w.Flush()
}

// Publish fans the message out to all matching subscribers without blocking.
// Messages to subscribers whose queue is at the high-water mark are dropped.
func (p *Publisher) Publish(topic string, payload []byte) {
	if strings.ContainsAny(topic, " \n") {
		// Topics are space-delimited on the wire; reject unencodable ones.
		p.dropped.Add(1)
		return
	}
	p.published.Add(1)
	p.mu.Lock()
	defer p.mu.Unlock()
	for sc := range p.subs {
		if !sc.wants(topic) {
			continue
		}
		select {
		case sc.out <- Message{Topic: topic, Payload: payload}:
		default:
			p.dropped.Add(1)
		}
	}
}

// Close shuts the publisher down and disconnects all subscribers.
func (p *Publisher) Close() error {
	select {
	case <-p.done:
		return nil
	default:
	}
	close(p.done)
	err := p.ln.Close()
	p.mu.Lock()
	for sc := range p.subs {
		delete(p.subs, sc)
		close(sc.out)
		_ = sc.conn.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

// Subscriber is the SUB side.
type Subscriber struct {
	conn net.Conn
	w    *bufio.Writer
	wmu  sync.Mutex
	msgs chan Message
	once sync.Once
}

// Dial connects to a publisher. The returned subscriber receives nothing
// until Subscribe is called.
func Dial(addr string) (*Subscriber, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pubsub: dial: %w", err)
	}
	s := &Subscriber{
		conn: conn,
		w:    bufio.NewWriter(conn),
		msgs: make(chan Message, 256),
	}
	go s.readLoop()
	return s, nil
}

// Subscribe adds a topic-prefix subscription. The empty prefix matches all
// topics.
func (s *Subscriber) Subscribe(prefix string) error {
	return s.send("SUB " + prefix)
}

func (s *Subscriber) send(cmd string) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if _, err := s.w.WriteString(cmd + "\n"); err != nil {
		return err
	}
	return s.w.Flush()
}

// Messages returns the delivery channel. It is closed when the connection
// drops or Close is called.
func (s *Subscriber) Messages() <-chan Message { return s.msgs }

func (s *Subscriber) readLoop() {
	defer close(s.msgs)
	r := bufio.NewReader(s.conn)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\r\n")
		var topic string
		var n int
		if !strings.HasPrefix(line, "MSG ") {
			continue // ignore unknown frames (forward compatibility)
		}
		rest := line[4:]
		sp := strings.LastIndexByte(rest, ' ')
		if sp < 0 {
			continue
		}
		topic = rest[:sp]
		n, err = strconv.Atoi(rest[sp+1:])
		if err != nil || n < 0 {
			continue
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return
		}
		if b, err := r.ReadByte(); err != nil || b != '\n' {
			return
		}
		s.msgs <- Message{Topic: topic, Payload: payload}
	}
}

// Close disconnects the subscriber.
func (s *Subscriber) Close() error {
	var err error
	s.once.Do(func() { err = s.conn.Close() })
	return err
}
