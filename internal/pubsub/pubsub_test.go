package pubsub

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func newPair(t *testing.T, hwm int) (*Publisher, *Subscriber) {
	t.Helper()
	pub, err := NewPublisher("127.0.0.1:0", hwm)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pub.Close() })
	sub, err := Dial(pub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sub.Close() })
	return pub, sub
}

// waitSubscribed publishes until the subscriber sees a probe message,
// guaranteeing the SUB command has been processed.
func waitSubscribed(t *testing.T, pub *Publisher, sub *Subscriber, topic string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			pub.Publish(topic, []byte("probe"))
		case m := <-sub.Messages():
			if string(m.Payload) == "probe" {
				return
			}
		case <-deadline:
			t.Fatal("subscription never became active")
		}
	}
}

func recvPayload(t *testing.T, sub *Subscriber) Message {
	t.Helper()
	select {
	case m, ok := <-sub.Messages():
		if !ok {
			t.Fatal("message channel closed")
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for message")
		return Message{}
	}
}

func TestPublishSubscribe(t *testing.T) {
	pub, sub := newPair(t, 0)
	if err := sub.Subscribe("metrics/"); err != nil {
		t.Fatal(err)
	}
	waitSubscribed(t, pub, sub, "metrics/cpu")
	pub.Publish("metrics/cpu", []byte("cpu,hostname=h1 value=1 10"))
	m := recvPayload(t, sub)
	if m.Topic != "metrics/cpu" {
		t.Fatalf("topic %q", m.Topic)
	}
	if string(m.Payload) != "cpu,hostname=h1 value=1 10" {
		t.Fatalf("payload %q", m.Payload)
	}
}

func TestTopicPrefixFiltering(t *testing.T) {
	pub, sub := newPair(t, 0)
	_ = sub.Subscribe("meta/")
	waitSubscribed(t, pub, sub, "meta/probe")
	pub.Publish("metrics/cpu", []byte("nope"))
	pub.Publish("meta/jobstart", []byte("yes1"))
	pub.Publish("other", []byte("nope"))
	pub.Publish("meta/tags", []byte("yes2"))
	got := []string{string(recvPayload(t, sub).Payload), string(recvPayload(t, sub).Payload)}
	if got[0] != "yes1" || got[1] != "yes2" {
		t.Fatalf("got %v", got)
	}
	select {
	case m := <-sub.Messages():
		t.Fatalf("unexpected extra message %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestEmptyPrefixMatchesAll(t *testing.T) {
	pub, sub := newPair(t, 0)
	_ = sub.Subscribe("")
	waitSubscribed(t, pub, sub, "anything")
	pub.Publish("a", []byte("1"))
	pub.Publish("b/c", []byte("2"))
	if string(recvPayload(t, sub).Payload) != "1" {
		t.Fatal("first")
	}
	if string(recvPayload(t, sub).Payload) != "2" {
		t.Fatal("second")
	}
}

func TestMultipleSubscribers(t *testing.T) {
	pub, err := NewPublisher("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	const n = 5
	subs := make([]*Subscriber, n)
	for i := range subs {
		s, err := Dial(pub.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		_ = s.Subscribe("t/")
		subs[i] = s
	}
	for _, s := range subs {
		waitSubscribed(t, pub, s, "t/probe")
	}
	// Drain any probe cross-talk before the real message: probes go to every
	// subscriber, so flush each channel first.
	for _, s := range subs {
	drain:
		for {
			select {
			case <-s.Messages():
			case <-time.After(30 * time.Millisecond):
				break drain
			}
		}
	}
	pub.Publish("t/data", []byte("fanout"))
	for i, s := range subs {
		if got := string(recvPayload(t, s).Payload); got != "fanout" {
			t.Fatalf("sub %d got %q", i, got)
		}
	}
	if pub.SubscriberCount() != n {
		t.Fatalf("subscriber count %d", pub.SubscriberCount())
	}
}

func TestOrderingPerTopic(t *testing.T) {
	pub, sub := newPair(t, 0)
	_ = sub.Subscribe("seq")
	waitSubscribed(t, pub, sub, "seq")
	const n = 500
	for i := 0; i < n; i++ {
		pub.Publish("seq", []byte(fmt.Sprint(i)))
	}
	for i := 0; i < n; i++ {
		m := recvPayload(t, sub)
		if string(m.Payload) != fmt.Sprint(i) {
			t.Fatalf("at %d got %q", i, m.Payload)
		}
	}
}

func TestSlowSubscriberDrops(t *testing.T) {
	pub, err := NewPublisher("127.0.0.1:0", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := Dial(pub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	_ = sub.Subscribe("")
	waitSubscribed(t, pub, sub, "probe")
	// Do not read from sub while publishing far beyond the HWM. The channel
	// buffer (256) + hwm (8) bound deliverable messages; the rest must drop
	// without blocking this goroutine.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 5000; i++ {
			pub.Publish("flood", []byte("x"))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publisher blocked on slow subscriber")
	}
	_, dropped := pub.Stats()
	if dropped == 0 {
		t.Fatal("expected drops for slow subscriber")
	}
}

func TestPayloadWithNewlines(t *testing.T) {
	// Batched line-protocol payloads contain newlines; framing must survive.
	pub, sub := newPair(t, 0)
	_ = sub.Subscribe("batch")
	waitSubscribed(t, pub, sub, "batch")
	payload := "cpu value=1 1\nmem value=2 2\nnet value=3 3\n"
	pub.Publish("batch", []byte(payload))
	m := recvPayload(t, sub)
	if string(m.Payload) != payload {
		t.Fatalf("payload %q", m.Payload)
	}
}

func TestInvalidTopicDropped(t *testing.T) {
	pub, sub := newPair(t, 0)
	_ = sub.Subscribe("")
	waitSubscribed(t, pub, sub, "ok")
	pub.Publish("bad topic", []byte("x"))
	pub.Publish("bad\ntopic", []byte("x"))
	_, dropped := pub.Stats()
	if dropped != 2 {
		t.Fatalf("dropped %d", dropped)
	}
	pub.Publish("good", []byte("y"))
	if got := recvPayload(t, sub); string(got.Payload) != "y" {
		t.Fatalf("got %+v", got)
	}
}

func TestSubscriberCloseEndsChannel(t *testing.T) {
	pub, sub := newPair(t, 0)
	_ = sub.Subscribe("")
	waitSubscribed(t, pub, sub, "x")
	_ = sub.Close()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-sub.Messages():
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("channel not closed after Close")
		}
	}
}

func TestPublisherCloseDisconnectsSubscribers(t *testing.T) {
	pub, err := NewPublisher("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Dial(pub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	_ = sub.Subscribe("")
	waitSubscribed(t, pub, sub, "x")
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-sub.Messages():
			if !ok {
				if pub.SubscriberCount() != 0 {
					t.Fatal("subscribers not cleaned up")
				}
				return
			}
		case <-deadline:
			t.Fatal("subscriber channel not closed after publisher Close")
		}
	}
}

func TestPublisherDoubleCloseIsSafe(t *testing.T) {
	pub, err := NewPublisher("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentPublishers(t *testing.T) {
	pub, sub := newPair(t, 4096)
	_ = sub.Subscribe("c/")
	waitSubscribed(t, pub, sub, "c/probe")
	var wg sync.WaitGroup
	const goroutines, per = 8, 100
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				pub.Publish(fmt.Sprintf("c/%d", g), []byte(fmt.Sprintf("%d:%d", g, i)))
			}
		}(g)
	}
	wg.Wait()
	// All 800 messages must arrive (hwm is large enough), with per-topic
	// FIFO order.
	last := map[string]int{}
	for i := 0; i < goroutines*per; i++ {
		m := recvPayload(t, sub)
		var g, seq int
		if _, err := fmt.Sscanf(string(m.Payload), "%d:%d", &g, &seq); err != nil {
			t.Fatalf("payload %q", m.Payload)
		}
		if prev, ok := last[m.Topic]; ok && seq != prev+1 {
			t.Fatalf("topic %s: seq %d after %d", m.Topic, seq, prev)
		}
		last[m.Topic] = seq
	}
}

func TestDialError(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestUnknownFrameIgnored(t *testing.T) {
	// A subscriber must skip frames it does not understand.
	pub, sub := newPair(t, 0)
	_ = sub.Subscribe("t")
	waitSubscribed(t, pub, sub, "t")
	// Publish a topic containing what looks like framing in the payload.
	payload := "MSG fake 3\nabc"
	pub.Publish("t", []byte(payload))
	if got := string(recvPayload(t, sub).Payload); got != payload {
		t.Fatalf("got %q", got)
	}
}

func TestStatsPublishedCount(t *testing.T) {
	pub, sub := newPair(t, 0)
	_ = sub.Subscribe("")
	waitSubscribed(t, pub, sub, "x")
	before, _ := pub.Stats()
	for i := 0; i < 10; i++ {
		pub.Publish("x", []byte(strings.Repeat("y", i)))
	}
	after, _ := pub.Stats()
	if after-before != 10 {
		t.Fatalf("published delta %d", after-before)
	}
}
