package main

import (
	"runtime/debug"
	"sync/atomic"
	"time"

	"mimir/internal/mpi"
	"mimir/internal/transport"
)

// tcpDeadline is the per-I/O deadline of the TCP mesh. Rank 0 computes
// digests and runs the baseline between jobs while the worker waits in a
// collective, so it is generous.
const tcpDeadline = 60 * time.Second

// tcpWorld is rank 0's side of a multi-process world: this process plus
// worker processes re-executed from the same binary, which follow the
// commands rank 0 broadcasts before each job.
type tcpWorld struct {
	world    *mpi.World
	tr       *transport.TCP
	children *transport.Children
	// cur is the tracer the exchange decorator reports to (nil = off).
	cur *atomic.Pointer[tracer]
}

// spawn starts a TCP world for b's workload and makes it b's world. In a
// traced run its transport is decorated so exchanges can be timed.
func (b *bench) spawn() error {
	t, children, err := transport.SpawnLocalOpts(b.s.ranks, transport.SpawnOptions{
		Options: transport.Options{Deadline: tcpDeadline},
	})
	if err != nil {
		return err
	}
	tw := &tcpWorld{tr: t, children: children, cur: new(atomic.Pointer[tracer])}
	var tt transport.Transport = t
	if b.traced {
		tt = newTracedTransport(t, tw.cur)
	}
	tw.world = mpi.NewWorld(mpi.Config{Transport: tt})
	b.tcp = tw
	return nil
}

func (tw *tcpWorld) send(cmd byte) error {
	return tw.world.Run(func(c *mpi.Comm) error {
		_, err := c.Bcast([]byte{cmd}, 0)
		return err
	})
}

// closeWorld stops the worker processes and waits until they have exited.
func (b *bench) closeWorld() {
	tw := b.tcp
	if tw == nil {
		return
	}
	b.tcp = nil
	_ = tw.send(cmdStop) // a failed world has no worker left to stop
	tw.world.Close()
	exited := make(chan struct{})
	go func() {
		tw.children.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(grace):
		tw.children.Kill()
		<-exited
	}
}

// tcpWorker is a worker process: it joins rank 0's world and runs each job
// it is told to, until told to stop.
func tcpWorker(cfg transport.TCPConfig, s spec) error {
	t, err := transport.NewTCP(cfg)
	if err != nil {
		return err
	}
	w := mpi.NewWorld(mpi.Config{Transport: t})
	defer w.Close()
	for {
		var cmd byte
		err := w.Run(func(c *mpi.Comm) error {
			b, err := c.Bcast(nil, 0)
			if err == nil && len(b) == 1 {
				cmd = b[0]
			}
			return err
		})
		if err != nil {
			return err
		}
		switch cmd {
		case cmdStop:
			return nil
		case cmdWarm:
			_, err = runJob(w, s.warm(), nil)
		default:
			_, err = runJob(w, s, nil)
		}
		if err != nil {
			return err
		}
		debug.FreeOSMemory()
	}
}
