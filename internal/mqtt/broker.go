package mqtt

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"
)

// Message is an application message flowing through the broker.
type Message struct {
	Topic   string
	Payload []byte
	QoS     byte
	Retain  bool
}

// Broker is a standalone MQTT 3.1.1 broker over TCP. The zero value is
// not usable; create one with NewBroker, then Start it.
type Broker struct {
	mu       sync.Mutex
	ln       net.Listener
	sessions map[string]*session // by client ID
	retained map[string]Message  // by topic
	closed   bool
	wg       sync.WaitGroup

	// Logger receives connection-level diagnostics; nil disables.
	Logger *log.Logger

	// stats
	published uint64
	delivered uint64
	dropped   uint64
}

// NewBroker creates a broker (not yet listening).
func NewBroker() *Broker {
	return &Broker{
		sessions: make(map[string]*session),
		retained: make(map[string]Message),
	}
}

// Start begins accepting connections on addr (e.g. "127.0.0.1:0").
// It returns the bound address.
func (b *Broker) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mqtt broker: %w", err)
	}
	b.mu.Lock()
	b.ln = ln
	b.closed = false
	b.mu.Unlock()
	b.wg.Add(1)
	go b.acceptLoop(ln)
	return ln.Addr(), nil
}

// Addr returns the listener address (nil before Start).
func (b *Broker) Addr() net.Addr {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ln == nil {
		return nil
	}
	return b.ln.Addr()
}

// Close stops the listener and disconnects every session.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	ln := b.ln
	sessions := make([]*session, 0, len(b.sessions))
	for _, s := range b.sessions {
		sessions = append(sessions, s)
	}
	b.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, s := range sessions {
		s.close()
	}
	b.wg.Wait()
	return err
}

// Stats reports message counters: published (received by the broker),
// delivered (fanned out), dropped (undeliverable to a slow session).
func (b *Broker) Stats() (published, delivered, dropped uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.published, b.delivered, b.dropped
}

func (b *Broker) logf(format string, args ...any) {
	if b.Logger != nil {
		b.Logger.Printf(format, args...)
	}
}

func (b *Broker) acceptLoop(ln net.Listener) {
	defer b.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.serve(conn)
		}()
	}
}

// session is one connected client.
type session struct {
	broker   *Broker
	conn     net.Conn
	clientID string
	subs     map[string]byte // filter -> max QoS
	out      chan Packet
	done     chan struct{}
	closeOne sync.Once
	mu       sync.Mutex
	keep     time.Duration
}

func (s *session) close() {
	s.closeOne.Do(func() {
		close(s.done)
		s.conn.Close()
	})
}

func (b *Broker) serve(conn net.Conn) {
	// CONNECT must arrive promptly.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	pkt, err := ReadPacket(conn)
	if err != nil || pkt.Type != CONNECT {
		conn.Close()
		return
	}
	clientID, keepalive, err := parseConnect(pkt)
	if err != nil {
		// 0x02: identifier rejected / malformed
		WritePacket(conn, Packet{Type: CONNACK, Body: []byte{0, 0x02}})
		conn.Close()
		return
	}

	s := &session{
		broker:   b,
		conn:     conn,
		clientID: clientID,
		subs:     make(map[string]byte),
		out:      make(chan Packet, 256),
		done:     make(chan struct{}),
		keep:     keepalive,
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		conn.Close()
		return
	}
	if old, ok := b.sessions[clientID]; ok {
		// MQTT 3.1.1: a second connection with the same client ID
		// disconnects the first.
		old.close()
	}
	b.sessions[clientID] = s
	b.mu.Unlock()

	if err := WritePacket(conn, Packet{Type: CONNACK, Body: []byte{0, 0}}); err != nil {
		b.removeSession(s)
		conn.Close()
		return
	}
	b.logf("mqtt: client %q connected from %s", clientID, conn.RemoteAddr())

	go s.writeLoop()
	s.readLoop()
	b.removeSession(s)
	s.close()
	b.logf("mqtt: client %q disconnected", clientID)
}

func (b *Broker) removeSession(s *session) {
	b.mu.Lock()
	if b.sessions[s.clientID] == s {
		delete(b.sessions, s.clientID)
	}
	b.mu.Unlock()
}

func parseConnect(p Packet) (clientID string, keepalive time.Duration, err error) {
	f := &fieldReader{buf: p.Body}
	proto := f.string()
	level := f.byte()
	flags := f.byte()
	ka := f.uint16()
	cid := f.string()
	if f.err != nil {
		return "", 0, f.err
	}
	if proto != "MQTT" || level != 4 {
		return "", 0, fmt.Errorf("mqtt: unsupported protocol %q level %d", proto, level)
	}
	if flags&0x01 != 0 { // reserved bit must be zero
		return "", 0, errors.New("mqtt: reserved connect flag set")
	}
	if cid == "" {
		return "", 0, errors.New("mqtt: empty client id")
	}
	return cid, time.Duration(ka) * time.Second, nil
}

func (s *session) readLoop() {
	for {
		if s.keep > 0 {
			// Spec: disconnect after 1.5x keepalive without traffic.
			s.conn.SetReadDeadline(time.Now().Add(s.keep + s.keep/2))
		} else {
			s.conn.SetReadDeadline(time.Time{})
		}
		pkt, err := ReadPacket(s.conn)
		if err != nil {
			return
		}
		switch pkt.Type {
		case PUBLISH:
			if err := s.handlePublish(pkt); err != nil {
				return
			}
		case SUBSCRIBE:
			if err := s.handleSubscribe(pkt); err != nil {
				return
			}
		case UNSUBSCRIBE:
			if err := s.handleUnsubscribe(pkt); err != nil {
				return
			}
		case PINGREQ:
			s.send(Packet{Type: PINGRESP})
		case PUBACK:
			// QoS1 delivery ack from the client; this broker does not
			// retransmit, so the ack needs no bookkeeping.
		case DISCONNECT:
			return
		default:
			// Protocol violation: close the network connection.
			return
		}
	}
}

func (s *session) writeLoop() {
	for {
		select {
		case <-s.done:
			return
		case pkt := <-s.out:
			s.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
			if err := WritePacket(s.conn, pkt); err != nil {
				s.close()
				return
			}
		}
	}
}

// send enqueues a packet for the session, dropping if the queue is
// full (slow consumer) — the counter records it.
func (s *session) send(pkt Packet) bool {
	select {
	case s.out <- pkt:
		return true
	case <-s.done:
		return false
	default:
		s.broker.mu.Lock()
		s.broker.dropped++
		s.broker.mu.Unlock()
		return false
	}
}

func (s *session) handlePublish(p Packet) error {
	qos := (p.Flags >> 1) & 0x03
	retain := p.Flags&0x01 != 0
	if qos > 1 {
		return fmt.Errorf("mqtt: QoS %d not supported", qos)
	}
	f := &fieldReader{buf: p.Body}
	topic := f.string()
	var pid uint16
	if qos == 1 {
		pid = f.uint16()
	}
	if f.err != nil {
		return f.err
	}
	if err := ValidateTopicName(topic); err != nil {
		return err
	}
	payload := append([]byte(nil), f.rest()...)

	msg := Message{Topic: topic, Payload: payload, QoS: qos, Retain: retain}
	s.broker.route(msg)
	if qos == 1 {
		s.send(Packet{Type: PUBACK, Body: appendUint16(nil, pid)})
	}
	return nil
}

// route fans a message out to every matching subscription and, for a
// retained message, updates the retained store in the same hold of
// b.mu: a subscriber whose filter lands concurrently (handleSubscribe
// registers it and snapshots the store in one hold too) then gets the
// message exactly once — live if it registered first, retained if not.
func (b *Broker) route(msg Message) {
	b.mu.Lock()
	b.published++
	targets := make([]*session, 0, 4)
	qoss := make([]byte, 0, 4)
	for _, sess := range b.sessions {
		sess.mu.Lock()
		best, found := byte(0), false
		for filter, q := range sess.subs {
			if TopicMatches(filter, msg.Topic) {
				found = true
				if q > best {
					best = q
				}
			}
		}
		sess.mu.Unlock()
		if found {
			targets = append(targets, sess)
			qoss = append(qoss, best)
		}
	}
	if msg.Retain {
		if len(msg.Payload) == 0 {
			delete(b.retained, msg.Topic) // empty retained payload clears
		} else {
			b.retained[msg.Topic] = msg
		}
	}
	b.mu.Unlock()

	for i, sess := range targets {
		qos := msg.QoS
		if qoss[i] < qos {
			qos = qoss[i]
		}
		if sess.send(buildPublish(msg.Topic, msg.Payload, qos, false, 1)) {
			b.mu.Lock()
			b.delivered++
			b.mu.Unlock()
		}
	}
}

func buildPublish(topic string, payload []byte, qos byte, retain bool, pid uint16) Packet {
	body := appendString(nil, topic)
	if qos > 0 {
		body = appendUint16(body, pid)
	}
	body = append(body, payload...)
	flags := qos << 1
	if retain {
		flags |= 0x01
	}
	return Packet{Type: PUBLISH, Flags: flags, Body: body}
}

func (s *session) handleSubscribe(p Packet) error {
	if p.Flags != 0x02 {
		return errors.New("mqtt: SUBSCRIBE flags must be 0010")
	}
	f := &fieldReader{buf: p.Body}
	pid := f.uint16()
	var filters []string
	var qoss, codes []byte
	for f.remaining() > 0 && f.err == nil {
		filter := f.string()
		qos := f.byte()
		if f.err != nil {
			break
		}
		if ValidateTopicFilter(filter) != nil || qos > 1 {
			codes = append(codes, 0x80) // failure
			continue
		}
		filters = append(filters, filter)
		qoss = append(qoss, qos)
		codes = append(codes, qos)
	}
	if f.err != nil {
		return f.err
	}
	if len(codes) == 0 {
		return errors.New("mqtt: SUBSCRIBE with no filters")
	}

	// Register the filters and snapshot the retained messages they match
	// in one hold of broker.mu (lock order broker.mu → s.mu, as in
	// route), so a concurrent retained publish is either routed live or
	// in the snapshot, never both and never neither.
	s.broker.mu.Lock()
	s.mu.Lock()
	for i, filter := range filters {
		s.subs[filter] = qoss[i]
	}
	s.mu.Unlock()
	var retained []Message
	for _, filter := range filters {
		for topic, msg := range s.broker.retained {
			if TopicMatches(filter, topic) {
				retained = append(retained, msg)
			}
		}
	}
	s.broker.mu.Unlock()
	s.send(Packet{Type: SUBACK, Body: append(appendUint16(nil, pid), codes...)})
	for _, msg := range retained {
		s.send(buildPublish(msg.Topic, msg.Payload, 0, true, 0))
	}
	return nil
}

func (s *session) handleUnsubscribe(p Packet) error {
	f := &fieldReader{buf: p.Body}
	pid := f.uint16()
	for f.remaining() > 0 && f.err == nil {
		filter := f.string()
		if f.err != nil {
			break
		}
		s.mu.Lock()
		delete(s.subs, filter)
		s.mu.Unlock()
	}
	if f.err != nil {
		return f.err
	}
	s.send(Packet{Type: UNSUBACK, Body: appendUint16(nil, pid)})
	return nil
}
