package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/msg"
	"repro/internal/transport"
)

// runBaseline measures the conventional, non-deterministic implementation
// of the same application: sender goroutines on "engine A" run the same
// busy loops on the same draws and forward requests over a real TCP
// connection to a merger goroutine on "engine B", which processes them in
// arrival order (the paper's non-deterministic mode — a synchronized method
// invoked by competing threads).
func runBaseline(w workload, port int) (result, error) {
	tcp := transport.TCP{}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	l, err := tcp.Listen(addr)
	if err != nil {
		return result{}, err
	}
	tr := newTracker(w)

	// Engine B: one receiver per sender connection feeds the merger, which
	// services messages one at a time in real arrival order.
	arrivals := make(chan uint64, tr.want)
	go func() {
		for p := range arrivals {
			spin(steps(w.mergeCost), p)
			tr.deliver(p)
		}
	}()
	// Runs after the sender connections' deferred closes have ended every
	// receiver's Recv.
	var recvs sync.WaitGroup
	defer func() {
		l.Close()
		recvs.Wait()
		close(arrivals)
	}()
	for i := 0; i < 2; i++ {
		recvs.Add(1)
		go func() {
			defer recvs.Done()
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			for {
				env, err := conn.Recv()
				if err != nil {
					return
				}
				p, _ := env.Payload.(uint64)
				arrivals <- p
			}
		}()
	}

	// Engine A: each sender drains its source's queue, loops k iterations
	// per message, then sends. A queue holds a whole run, so a generator
	// never blocks on a busy sender.
	var conns [2]transport.Conn
	for s := range conns {
		if conns[s], err = tcp.Dial(addr); err != nil {
			return result{}, err
		}
		defer conns[s].Close()
	}
	var senders sync.WaitGroup
	var sendErrs [2]error
	queues := [2]chan uint64{make(chan uint64, w.perSender[0]), make(chan uint64, w.perSender[1])}
	for s, conn := range conns {
		senders.Add(1)
		go func() {
			defer senders.Done()
			seq := uint64(0)
			for p := range queues[s] {
				spin(loops(p)*steps(w.iterCost), p)
				seq++
				if sendErrs[s] = conn.Send(msg.Envelope{Kind: msg.KindData, Seq: seq, Payload: p}); sendErrs[s] != nil {
					return
				}
			}
		}()
	}
	backlog, _ := drive(w, tr, func(s int, p uint64) error {
		queues[s] <- p
		return nil
	})
	close(queues[0])
	close(queues[1])
	senders.Wait()
	if err := errors.Join(sendErrs[:]...); err != nil {
		return result{}, err
	}
	lat, err := tr.wait(60 * time.Second)
	if err != nil {
		return result{}, fmt.Errorf("baseline %w", err)
	}
	return result{lat: lat, backlog: backlog}, nil
}
