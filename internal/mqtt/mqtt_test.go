package mqtt

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// startBroker runs a broker on an ephemeral port and tears it down with
// the test.
func startBroker(t *testing.T) (*Broker, string) {
	t.Helper()
	b := NewBroker()
	addr, err := b.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b, addr.String()
}

func dial(t *testing.T, addr, id string) *Client {
	t.Helper()
	c, err := Dial(addr, id, DialOptions{})
	if err != nil {
		t.Fatalf("dial %s: %v", id, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met in time")
}

func TestRemainingLengthRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 2097151, 2097152} {
		enc := encodeRemainingLength(n)
		got, err := decodeRemainingLength(bytes.NewReader(enc))
		if err != nil || got != n {
			t.Fatalf("round trip %d: got %d err %v", n, got, err)
		}
	}
}

func TestRemainingLengthProperty(t *testing.T) {
	f := func(n uint32) bool {
		v := int(n % MaxPacketSize)
		enc := encodeRemainingLength(v)
		got, err := decodeRemainingLength(bytes.NewReader(enc))
		return err == nil && got == v && len(enc) <= 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := Packet{Type: PUBLISH, Flags: 0x03, Body: []byte("hello world")}
	if err := WritePacket(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPacket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != want.Type || got.Flags != want.Flags || !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, want)
	}
}

func TestTopicValidation(t *testing.T) {
	if err := ValidateTopicName("a/b/c"); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTopicName(""); err != ErrEmptyTopic {
		t.Fatalf("empty: %v", err)
	}
	if err := ValidateTopicName("a/+/c"); err != ErrWildcardInTopic {
		t.Fatalf("wildcard: %v", err)
	}
	for _, ok := range []string{"a/b", "+", "#", "a/+/c", "a/b/#", "+/+/#"} {
		if err := ValidateTopicFilter(ok); err != nil {
			t.Errorf("filter %q should be valid: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "a/#/b", "a+/b", "a/b#"} {
		if err := ValidateTopicFilter(bad); err == nil {
			t.Errorf("filter %q should be invalid", bad)
		}
	}
}

func TestTopicMatching(t *testing.T) {
	cases := []struct {
		filter, topic string
		want          bool
	}{
		{"a/b/c", "a/b/c", true},
		{"a/b/c", "a/b/d", false},
		{"a/+/c", "a/b/c", true},
		{"a/+/c", "a/b/d", false},
		{"a/#", "a/b/c/d", true},
		{"a/#", "a", true}, // MQTT 3.1.1 §4.7.1.2: "sport/#" also matches "sport"
		{"#", "anything/at/all", true},
		{"+", "one", true},
		{"+", "one/two", false},
		{"a/b", "a/b/c", false},
		{"a/b/c", "a/b", false},
	}
	for _, c := range cases {
		if got := TopicMatches(c.filter, c.topic); got != c.want {
			t.Errorf("TopicMatches(%q, %q) = %v, want %v", c.filter, c.topic, got, c.want)
		}
	}
}

func TestPublishSubscribeQoS0(t *testing.T) {
	_, addr := startBroker(t)
	sub := dial(t, addr, "sub1")
	pub := dial(t, addr, "pub1")

	var got atomic.Value
	if err := sub.Subscribe("sensors/+/co2", 0, func(m Message) { got.Store(m) }); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("sensors/node7/co2", []byte("415.2"), 0, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return got.Load() != nil })
	m := got.Load().(Message)
	if m.Topic != "sensors/node7/co2" || string(m.Payload) != "415.2" {
		t.Fatalf("got %+v", m)
	}
}

func TestPublishQoS1Acked(t *testing.T) {
	_, addr := startBroker(t)
	sub := dial(t, addr, "subq")
	pub := dial(t, addr, "pubq")

	var count atomic.Int32
	if err := sub.Subscribe("t/q1", 1, func(m Message) { count.Add(1) }); err != nil {
		t.Fatal(err)
	}
	// Publish waits for PUBACK — returning nil means the broker acked.
	if err := pub.Publish("t/q1", []byte("x"), 1, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return count.Load() == 1 })
}

func TestNoDeliveryWithoutSubscription(t *testing.T) {
	_, addr := startBroker(t)
	sub := dial(t, addr, "sub2")
	pub := dial(t, addr, "pub2")

	var n atomic.Int32
	if err := sub.Subscribe("only/this", 0, func(Message) { n.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("other/topic", []byte("x"), 0, false); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("only/this", []byte("y"), 0, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return n.Load() == 1 })
	time.Sleep(50 * time.Millisecond)
	if n.Load() != 1 {
		t.Fatalf("got %d deliveries, want 1", n.Load())
	}
}

func TestRetainedMessage(t *testing.T) {
	_, addr := startBroker(t)
	pub := dial(t, addr, "pub3")
	// QoS 1: the PUBACK follows the retained store, so the message is
	// retained — not routed live — by the time sub3 subscribes.
	if err := pub.Publish("status/gw1", []byte("online"), 1, true); err != nil {
		t.Fatal(err)
	}
	// A later subscriber must receive the retained message.
	sub := dial(t, addr, "sub3")
	var got atomic.Value
	if err := sub.Subscribe("status/#", 0, func(m Message) { got.Store(m) }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return got.Load() != nil })
	m := got.Load().(Message)
	if string(m.Payload) != "online" || !m.Retain {
		t.Fatalf("retained delivery wrong: %+v", m)
	}

	// Empty retained payload clears it.
	if err := pub.Publish("status/gw1", nil, 1, true); err != nil {
		t.Fatal(err)
	}
	sub2 := dial(t, addr, "sub3b")
	var got2 atomic.Value
	if err := sub2.Subscribe("status/#", 0, func(m Message) { got2.Store(m) }); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got2.Load() != nil {
		t.Fatal("cleared retained message still delivered")
	}
}

// TestRetainedRaceDeliversOnce races a retained publish against
// subscribes to its topic: each subscriber must get the message exactly
// once — live when its filter landed first, from the retained store
// otherwise — never twice and never not at all.
func TestRetainedRaceDeliversOnce(t *testing.T) {
	const topics, subscribers = 400, 4
	_, addr := startBroker(t)
	pub := dial(t, addr, "race-pub")
	subs := make([]*Client, subscribers)
	for i := range subs {
		subs[i] = dial(t, addr, fmt.Sprintf("race-sub%d", i))
	}
	counts := make([][topics]atomic.Int32, subscribers)
	var total atomic.Int32
	for i := 0; i < topics; i++ {
		topic := fmt.Sprintf("race/%d", i)
		var wg sync.WaitGroup
		errs := make(chan error, subscribers+1)
		start := make(chan struct{})
		for k, sub := range subs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs <- sub.Subscribe(topic, 0, func(Message) { counts[k][i].Add(1); total.Add(1) })
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs <- pub.Publish(topic, []byte("on"), 1, true)
		}()
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for total.Load() < topics*subscribers && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let any duplicate arrive
	for k := range counts {
		for i := range counts[k] {
			if n := counts[k][i].Load(); n != 1 {
				t.Errorf("subscriber %d got race/%d %d times, want 1", k, i, n)
			}
		}
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	_, addr := startBroker(t)
	sub := dial(t, addr, "sub4")
	pub := dial(t, addr, "pub4")

	var n atomic.Int32
	if err := sub.Subscribe("u/t", 0, func(Message) { n.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("u/t", []byte("1"), 0, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return n.Load() == 1 })
	if err := sub.Unsubscribe("u/t"); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("u/t", []byte("2"), 0, false); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if n.Load() != 1 {
		t.Fatalf("delivery after unsubscribe: %d", n.Load())
	}
}

func TestMultipleSubscribersFanOut(t *testing.T) {
	_, addr := startBroker(t)
	pub := dial(t, addr, "pub5")
	const nSubs = 5
	var wg sync.WaitGroup
	wg.Add(nSubs)
	var total atomic.Int32
	for i := 0; i < nSubs; i++ {
		c := dial(t, addr, "fan"+string(rune('0'+i)))
		once := sync.Once{}
		if err := c.Subscribe("fan/t", 0, func(Message) {
			total.Add(1)
			once.Do(wg.Done)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Publish("fan/t", []byte("x"), 0, false); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatalf("fan-out incomplete: %d/%d", total.Load(), nSubs)
	}
}

func TestDuplicateClientIDKicksOld(t *testing.T) {
	_, addr := startBroker(t)
	c1 := dial(t, addr, "dup")
	_ = dial(t, addr, "dup") // same id: c1 must be disconnected
	waitFor(t, 2*time.Second, func() bool {
		return c1.Err() != nil
	})
}

func TestBrokerStats(t *testing.T) {
	b, addr := startBroker(t)
	sub := dial(t, addr, "stats-sub")
	pub := dial(t, addr, "stats-pub")
	var n atomic.Int32
	if err := sub.Subscribe("s/#", 0, func(Message) { n.Add(1) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := pub.Publish("s/x", []byte{byte(i)}, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return n.Load() == 10 })
	p, d, _ := b.Stats()
	if p != 10 || d != 10 {
		t.Fatalf("stats published=%d delivered=%d, want 10/10", p, d)
	}
}

func TestClientPublishValidation(t *testing.T) {
	_, addr := startBroker(t)
	c := dial(t, addr, "val")
	if err := c.Publish("bad/+/topic", nil, 0, false); err == nil {
		t.Fatal("wildcard publish should fail")
	}
	if err := c.Publish("t", nil, 2, false); err == nil {
		t.Fatal("QoS 2 should be rejected")
	}
	if err := c.Subscribe("bad/#/x", 0, func(Message) {}); err == nil {
		t.Fatal("bad filter should fail")
	}
}

func TestClientCloseIdempotent(t *testing.T) {
	_, addr := startBroker(t)
	c, err := Dial(addr, "closer", DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("t", nil, 0, false); err != ErrClientClosed {
		t.Fatalf("publish after close: %v", err)
	}
}

func TestKeepAlivePing(t *testing.T) {
	_, addr := startBroker(t)
	c, err := Dial(addr, "ka", DialOptions{KeepAlive: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Survive several keepalive periods with no app traffic: the ping
	// loop must keep the session alive.
	time.Sleep(300 * time.Millisecond)
	if err := c.Publish("ka/ok", []byte("still here"), 0, false); err != nil {
		t.Fatalf("connection died despite keepalive: %v", err)
	}
}

func TestBrokerCloseDisconnectsClients(t *testing.T) {
	b := NewBroker()
	addr, err := b.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String(), "bc", DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return c.Err() != nil })
	// Closing again is fine.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHighThroughputQoS0(t *testing.T) {
	_, addr := startBroker(t)
	sub := dial(t, addr, "ht-sub")
	pub := dial(t, addr, "ht-pub")
	const n = 200
	var seen atomic.Int32
	if err := sub.Subscribe("ht/#", 0, func(Message) { seen.Add(1) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := pub.Publish("ht/t", []byte{byte(i)}, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return seen.Load() == n })
}
