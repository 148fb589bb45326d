package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/msg"
	"repro/internal/transport"
)

// runBaseline measures the conventional, non-deterministic implementation
// of the same application: sender goroutines on "engine A" forward
// requests over a real TCP connection to a merger goroutine on "engine B",
// which processes them in arrival order (the paper's non-deterministic
// mode — a synchronized method invoked by competing threads). Like the
// TART components it is compared against, the handlers are pure
// forwarding: the measured latency is infrastructure cost only.
func runBaseline(requests int, rate float64, port int) ([]time.Duration, error) {
	tcp := transport.TCP{}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	l, err := tcp.Listen(addr)
	if err != nil {
		return nil, err
	}
	defer l.Close()

	var (
		mu       sync.Mutex
		emitted  = make(map[uint64]time.Time)
		lat      []time.Duration
		done     = make(chan struct{})
		received int
	)

	// Engine B: the merger accepts one connection per sender and services
	// messages in real arrival order (constant 100 µs service, as in the
	// TART runs).
	acceptDone := make(chan error, 1)
	go func() {
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			conn, err := l.Accept()
			if err != nil {
				acceptDone <- err
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					env, err := conn.Recv()
					if err != nil {
						return
					}
					id, _ := env.Payload.(uint64)
					mu.Lock()
					if t0, ok := emitted[id]; ok {
						lat = append(lat, time.Since(t0))
						delete(emitted, id)
					}
					received++
					if received == requests {
						close(done)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		acceptDone <- nil
	}()

	// Engine A: two sender goroutines, each with its own connection.
	gap := time.Duration(float64(time.Second) / rate)
	var senders sync.WaitGroup
	sendErr := make(chan error, 2)
	for s := 0; s < 2; s++ {
		conn, err := tcp.Dial(addr)
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		senders.Add(1)
		go func(conn transport.Conn, base uint64) {
			defer senders.Done()
			for i := 0; i < requests/2; i++ {
				id := base + uint64(i)
				mu.Lock()
				emitted[id] = time.Now()
				mu.Unlock()
				if err := conn.Send(msg.Envelope{Kind: msg.KindData, Seq: uint64(i + 1), Payload: id}); err != nil {
					sendErr <- err
					return
				}
				time.Sleep(gap)
			}
		}(conn, uint64(s)*1_000_000)
	}
	senders.Wait()
	select {
	case err := <-sendErr:
		return nil, err
	default:
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		return nil, fmt.Errorf("baseline timed out: %d of %d", received, requests)
	}
	return lat, nil
}
