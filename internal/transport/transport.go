// Package transport is the communication layer of the real
// (non-simulated) DPS runtime: a full mesh of loopback TCP connections
// carrying length-prefixed frames, and the codec that turns data objects
// into frames and back. It is the layer that the paper's simulator
// replaces with its simulated network (§3).
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"sync"

	"dpsim/internal/serial"
)

// Message is one framed payload addressed to a node.
type Message struct {
	// From is the sending node.
	From int
	// Kind discriminates runtime message types (data, closure, ack).
	Kind uint8
	// Body is the serialized payload.
	Body []byte
}

// Handler consumes delivered messages on the receiving node.
type Handler func(msg Message)

// --- TCP transport ---

// TCP connects n in-process nodes through real loopback sockets with
// 4-byte length-prefixed frames: the wire path of a distributed DPS
// deployment, exercised end to end.
type TCP struct {
	nodes    int
	handlers []Handler
	lns      []net.Listener
	conns    [][]net.Conn // conns[src][dst]
	mu       []sync.Mutex // per-src-dst write lock, flattened
	wg       sync.WaitGroup
	closed   chan struct{}
	once     sync.Once
}

// NewTCP builds a full mesh between n nodes on loopback.
func NewTCP(handlers []Handler) (*TCP, error) {
	n := len(handlers)
	t := &TCP{nodes: n, handlers: handlers, closed: make(chan struct{})}
	t.lns = make([]net.Listener, n)
	t.conns = make([][]net.Conn, n)
	t.mu = make([]sync.Mutex, n*n)
	for i := range t.conns {
		t.conns[i] = make([]net.Conn, n)
	}
	// One listener per node.
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("transport: listen node %d: %w", i, err)
		}
		t.lns[i] = ln
	}
	// Accept loops: each incoming connection announces its source node.
	var acceptWG sync.WaitGroup
	acceptErr := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		expect := n - 1
		if expect == 0 {
			continue
		}
		acceptWG.Add(1)
		go func() {
			defer acceptWG.Done()
			for k := 0; k < expect; k++ {
				conn, err := t.lns[i].Accept()
				if err != nil {
					acceptErr <- err
					return
				}
				var hdr [4]byte
				if _, err := io.ReadFull(conn, hdr[:]); err != nil {
					acceptErr <- err
					return
				}
				src := int(binary.LittleEndian.Uint32(hdr[:]))
				t.wg.Add(1)
				go t.readLoop(i, src, conn)
			}
		}()
	}
	// Dial the mesh.
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			conn, err := net.Dial("tcp", t.lns[dst].Addr().String())
			if err != nil {
				t.Close()
				return nil, fmt.Errorf("transport: dial %d→%d: %w", src, dst, err)
			}
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], uint32(src))
			if _, err := conn.Write(hdr[:]); err != nil {
				t.Close()
				return nil, err
			}
			t.conns[src][dst] = conn
		}
	}
	acceptWG.Wait()
	select {
	case err := <-acceptErr:
		t.Close()
		return nil, err
	default:
	}
	return t, nil
}

// readLoop decodes frames arriving at node `at` from node `src`.
func (t *TCP) readLoop(at, src int, conn net.Conn) {
	defer t.wg.Done()
	for {
		var hdr [5]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		size := binary.LittleEndian.Uint32(hdr[:4])
		kind := hdr[4]
		body := make([]byte, size)
		if _, err := io.ReadFull(conn, body); err != nil {
			return
		}
		select {
		case <-t.closed:
			return
		default:
		}
		t.handlers[at](Message{From: src, Kind: kind, Body: body})
	}
}

// Send delivers msg from node msg.From to node dst, another node; a node
// has no connection to itself. It may block briefly (TCP backpressure) but
// never loses messages.
func (t *TCP) Send(dst int, msg Message) error {
	if dst < 0 || dst >= t.nodes || msg.From < 0 || msg.From >= t.nodes {
		return fmt.Errorf("transport: message %d→%d outside %d nodes", msg.From, dst, t.nodes)
	}
	conn := t.conns[msg.From][dst]
	if conn == nil {
		return fmt.Errorf("transport: no connection %d→%d", msg.From, dst)
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(msg.Body)))
	hdr[4] = msg.Kind
	lock := &t.mu[msg.From*t.nodes+dst]
	lock.Lock()
	defer lock.Unlock()
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	_, err := conn.Write(msg.Body)
	return err
}

// Close tears down the mesh. Pending deliveries may be dropped.
func (t *TCP) Close() error {
	t.once.Do(func() { close(t.closed) })
	for _, ln := range t.lns {
		if ln != nil {
			ln.Close()
		}
	}
	for _, row := range t.conns {
		for _, c := range row {
			if c != nil {
				c.Close()
			}
		}
	}
	t.wg.Wait()
	return nil
}

// --- object codec (TCP payloads) ---

// Codec maps type tags to data-object factories so the TCP transport can
// reconstruct typed objects (the real DPS serialization layer).
type Codec struct {
	mu        sync.RWMutex
	factories map[uint16]func() serial.Object
	types     map[reflect.Type]uint16
}

// NewCodec returns an empty codec.
func NewCodec() *Codec {
	return &Codec{factories: make(map[uint16]func() serial.Object), types: make(map[reflect.Type]uint16)}
}

// Register binds a tag to a factory. Tags must be unique; the factory's
// concrete type is remembered so Encode can frame objects automatically.
func (c *Codec) Register(tag uint16, factory func() serial.Object) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.factories[tag]; dup {
		panic(fmt.Sprintf("transport: duplicate codec tag %d", tag))
	}
	c.factories[tag] = factory
	c.types[reflect.TypeOf(factory())] = tag
}

// Encode frames obj with its registered tag: a u32 tag, then the object.
func (c *Codec) Encode(obj serial.Object) ([]byte, error) {
	c.mu.RLock()
	tag, ok := c.types[reflect.TypeOf(obj)]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: type %T not registered with the codec", obj)
	}
	b := serial.NewBuffer(64)
	b.U32(uint32(tag))
	obj.Wire(b)
	return b.BytesOut(), nil
}

// Decode reconstructs a registered object from a frame that holds exactly
// one object.
func (c *Codec) Decode(body []byte) (serial.Object, error) {
	r := serial.NewReader(body)
	tag := r.U32(0)
	if r.Err() != nil {
		return nil, fmt.Errorf("transport: codec tag: %w", r.Err())
	}
	if tag > math.MaxUint16 {
		return nil, fmt.Errorf("transport: codec tag %d exceeds 16 bits", tag)
	}
	c.mu.RLock()
	factory, ok := c.factories[uint16(tag)]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: unknown codec tag %d", tag)
	}
	obj := factory()
	obj.Wire(r)
	if r.Remaining() > 0 {
		r.Failf("%d bytes after the object", r.Remaining())
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("transport: decode tag %d: %w", tag, r.Err())
	}
	return obj, nil
}
