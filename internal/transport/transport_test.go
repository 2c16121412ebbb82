package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dpsim/internal/serial"
)

type echo struct{ V int64 }

func (e *echo) Wire(s serial.Stream) { e.V = s.I64(e.V) }

func echoCodec() *Codec {
	c := NewCodec()
	c.Register(5, func() serial.Object { return &echo{} })
	return c
}

func collect(n int) ([]Handler, []*[]Message, *sync.WaitGroup) {
	var wg sync.WaitGroup
	handlers := make([]Handler, n)
	boxes := make([]*[]Message, n)
	var mu sync.Mutex
	for i := range handlers {
		box := &[]Message{}
		boxes[i] = box
		handlers[i] = func(m Message) {
			mu.Lock()
			*box = append(*box, m)
			mu.Unlock()
			wg.Done()
		}
	}
	return handlers, boxes, &wg
}

func TestTCPMeshDelivery(t *testing.T) {
	handlers, boxes, wg := collect(3)
	tr, err := NewTCP(handlers)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const per = 20
	wg.Add(3 * 2 * per)
	for src := 0; src < 3; src++ {
		for k := 0; k < per; k++ {
			for dst := 0; dst < 3; dst++ {
				if dst == src {
					continue
				}
				body := []byte(fmt.Sprintf("%d->%d#%d", src, dst, k))
				if err := tr.Send(dst, Message{From: src, Kind: 1, Body: body}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	wg.Wait()
	for i, box := range boxes {
		if len(*box) != 2*per {
			t.Fatalf("node %d received %d messages, want %d", i, len(*box), 2*per)
		}
	}
}

func TestTCPBadRoutes(t *testing.T) {
	handlers, _, _ := collect(2)
	tr, err := NewTCP(handlers)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for _, c := range []struct{ from, dst int }{{0, 9}, {9, 0}, {-1, 1}, {0, 0}} {
		if err := tr.Send(c.dst, Message{From: c.from}); err == nil {
			t.Fatalf("send %d→%d accepted", c.from, c.dst)
		}
	}
}

func TestTCPOrderingPerPair(t *testing.T) {
	var got []int64
	var mu sync.Mutex
	var count atomic.Int64
	done := make(chan struct{})
	handlers := []Handler{
		func(Message) {},
		func(m Message) {
			r := serial.NewReader(m.Body)
			mu.Lock()
			got = append(got, r.I64(0))
			mu.Unlock()
			if count.Add(1) == 100 {
				close(done)
			}
		},
	}
	tr, err := NewTCP(handlers)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := int64(0); i < 100; i++ {
		b := serial.NewBuffer(8)
		b.I64(i)
		if err := tr.Send(1, Message{From: 0, Kind: 1, Body: b.BytesOut()}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("TCP reordered same-pair messages: got[%d] = %d", i, v)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	c := echoCodec()
	body, err := c.Encode(&echo{V: 42})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := c.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if obj.(*echo).V != 42 {
		t.Fatalf("decoded %+v", obj)
	}
}

func TestCodecUnknowns(t *testing.T) {
	c := NewCodec()
	if _, err := c.Encode(&echo{}); err == nil {
		t.Fatal("unregistered encode accepted")
	}
	b := serial.NewBuffer(8)
	b.U32(99)
	if _, err := c.Decode(b.BytesOut()); err == nil {
		t.Fatal("unknown tag decode accepted")
	}
}

func TestCodecDuplicateTagPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate tag did not panic")
		}
	}()
	c := NewCodec()
	c.Register(1, func() serial.Object { return &echo{} })
	c.Register(1, func() serial.Object { return &echo{} })
}

func TestCodecCorruptPayload(t *testing.T) {
	c := echoCodec()
	b := serial.NewBuffer(8)
	b.U32(5) // tag but no payload
	if _, err := c.Decode(b.BytesOut()); err == nil {
		t.Fatal("corrupt payload accepted")
	}
}

// TestCodecRejectsWideTag checks that a u32 tag above 16 bits is not
// truncated onto a registered tag: 65541 = 65536 + 5.
func TestCodecRejectsWideTag(t *testing.T) {
	c := echoCodec()
	b := serial.NewBuffer(12)
	b.U32(65541)
	b.I64(42)
	if obj, err := c.Decode(b.BytesOut()); err == nil {
		t.Fatalf("tag 65541 decoded as %T", obj)
	}
}

// TestCodecRejectsTrailingBytes checks that one frame holds exactly one
// object.
func TestCodecRejectsTrailingBytes(t *testing.T) {
	c := echoCodec()
	body, err := c.Encode(&echo{V: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decode(append(body, 0)); err == nil {
		t.Fatal("frame with a trailing byte accepted")
	}
	if _, err := c.Decode(body); err != nil {
		t.Fatal(err)
	}
}
