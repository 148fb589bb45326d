package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"repro/internal/msg"
	"repro/internal/transport"
	"repro/internal/vt"
)

// wirespeedMsgs is the per-cell message count; large enough that pool and
// branch-predictor warmup amortizes away, small enough that the full sweep
// stays under a few seconds.
const wirespeedMsgs = 200_000

func wirespeedEnv(payload []byte, seq uint64) msg.Envelope {
	return msg.NewData(1, seq, vt.Time(seq*100), payload)
}

// wirespeedGob round-trips envelopes through an encoding/gob stream (the
// wire format this repo used before the binary codec): encode all into a
// buffer, then decode all back.
func wirespeedGob(payload []byte, msgs int) (float64, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	start := time.Now()
	for i := 1; i <= msgs; i++ {
		if err := enc.Encode(wirespeedEnv(payload, uint64(i))); err != nil {
			return 0, err
		}
	}
	dec := gob.NewDecoder(&buf)
	for i := 1; i <= msgs; i++ {
		var env msg.Envelope
		if err := dec.Decode(&env); err != nil {
			return 0, err
		}
	}
	return float64(msgs) / time.Since(start).Seconds(), nil
}

// wirespeedBinary round-trips envelopes through the zero-alloc binary
// frame codec, one frame at a time in a reused buffer.
func wirespeedBinary(payload []byte, msgs int) (float64, error) {
	buf := msg.GetBuffer()
	defer msg.PutBuffer(buf)
	start := time.Now()
	for i := 1; i <= msgs; i++ {
		frame, _, err := msg.AppendFrame((*buf)[:0], wirespeedEnv(payload, uint64(i)))
		if err != nil {
			return 0, err
		}
		*buf = frame[:0]
		if _, _, _, err := msg.DecodeFrame(frame); err != nil {
			return 0, err
		}
	}
	return float64(msgs) / time.Since(start).Seconds(), nil
}

// wirespeedPair pushes messages through a connected transport pair with a
// concurrent drain, measuring pipelined delivery throughput.
func wirespeedPair(tr transport.Transport, addr string, payload []byte, msgs int) (float64, error) {
	l, err := tr.Listen(addr)
	if err != nil {
		return 0, err
	}
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	client, err := tr.Dial(l.Addr())
	if err != nil {
		return 0, err
	}
	defer client.Close()
	server, ok := <-accepted
	if !ok {
		return 0, fmt.Errorf("accept failed on %s", addr)
	}
	defer server.Close()

	done := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			if _, err := server.Recv(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	start := time.Now()
	for i := 1; i <= msgs; i++ {
		if err := client.Send(wirespeedEnv(payload, uint64(i))); err != nil {
			return 0, err
		}
	}
	if err := <-done; err != nil {
		return 0, err
	}
	return float64(msgs) / time.Since(start).Seconds(), nil
}

// wirespeed sweeps payload size across the codec and transport lanes and
// prints envelopes/sec: an encoding/gob stream vs the binary frame codec
// (pure serialization cost), then a real TCP socket pair with
// scatter-gather batching (delivery cost). The binary/gob column is the
// codec speedup.
func wirespeed() error {
	fmt.Println("== Wire-speed sweep: gob vs binary codec, and a TCP socket pair ==")
	fmt.Printf("   %d messages per cell, []byte payloads, envelopes/sec\n\n", wirespeedMsgs)
	fmt.Printf("   %-10s %-12s %-12s %-9s %-12s\n",
		"payload", "gob/s", "binary/s", "speedup", "tcp/s")
	for _, size := range []int{1, 64, 512} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i)
		}
		viaGob, err := wirespeedGob(payload, wirespeedMsgs)
		if err != nil {
			return err
		}
		bin, err := wirespeedBinary(payload, wirespeedMsgs)
		if err != nil {
			return err
		}
		tcp, err := wirespeedPair(transport.TCP{}, "127.0.0.1:0", payload, wirespeedMsgs)
		if err != nil {
			return err
		}
		fmt.Printf("   %-10s %-12.0f %-12.0f %8.1fx %-12.0f\n",
			fmt.Sprintf("%dB", size), viaGob, bin, bin/viaGob, tcp)
	}
	fmt.Println()
	return nil
}
