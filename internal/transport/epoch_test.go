package transport

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

// Wire v5: the handshake is epoch-stamped and every connection between
// mismatched epochs is rejected, so frames from a stale mesh incarnation
// can never reach a newer world.

func TestHelloCarriesEpoch(t *testing.T) {
	var buf bytes.Buffer
	in := hello{Rank: 3, Size: 8, Epoch: 42, Addr: "127.0.0.1:9999"}
	if err := writeHello(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readHello(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("hello round trip: got %+v, want %+v", out, in)
	}
}

func TestBootstrapRejectsStaleEpochSoftly(t *testing.T) {
	// A worker from epoch 6 dials a bootstrap serving epoch 7: the stale
	// dial must fail without poisoning the bootstrap, and a correct-epoch
	// worker joining afterwards completes the world.
	const epoch = 7
	b, err := ListenTCP(TCPConfig{Addr: "127.0.0.1:0", Rank: 0, Size: 2, Epoch: epoch,
		Deadline: 2 * time.Second, BootstrapTimeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	staleErr := make(chan error, 1)
	go func() {
		tr, err := NewTCP(TCPConfig{Addr: b.Addr(), Rank: 1, Size: 2, Epoch: epoch - 1,
			Deadline: 2 * time.Second, BootstrapTimeout: 4 * time.Second})
		if err == nil {
			tr.Close()
		}
		staleErr <- err
	}()

	freshUp := make(chan *TCP, 1)
	go func() {
		// Wait for the stale worker to be turned away before joining, so
		// the test proves the bootstrap survived the rejection.
		if err := <-staleErr; err == nil {
			t.Error("stale-epoch worker joined the mesh; want rejection")
			freshUp <- nil
			return
		} else if !strings.Contains(err.Error(), "handshake") && !strings.Contains(err.Error(), "EOF") {
			t.Logf("stale-epoch worker rejected with: %v", err)
		}
		tr, err := NewTCP(TCPConfig{Addr: b.Addr(), Rank: 1, Size: 2, Epoch: epoch,
			Deadline: 2 * time.Second, BootstrapTimeout: 10 * time.Second})
		if err != nil {
			t.Errorf("correct-epoch worker: %v", err)
			freshUp <- nil
			return
		}
		freshUp <- tr
	}()

	t0, err := b.Accept()
	if err != nil {
		t.Fatalf("bootstrap did not survive the stale-epoch dial: %v", err)
	}
	if got := t0.Epoch(); got != epoch {
		t.Fatalf("rank 0 Epoch() = %d, want %d", got, epoch)
	}
	t1 := <-freshUp
	if t1 == nil {
		t0.Close()
		t.Fatal("fresh worker never came up")
	}
	if got := t1.Epoch(); got != epoch {
		t.Fatalf("rank 1 Epoch() = %d, want %d", got, epoch)
	}
	// The epoch is visible on mux channels too.
	ch, err := t1.Open(3)
	if err != nil {
		t.Fatal(err)
	}
	if er, ok := ch.(EpochReporter); !ok || er.Epoch() != epoch {
		t.Fatalf("mux channel epoch: ok=%v", ok)
	}
	t1.Close()
	t0.Close()
}

func TestBootstrapCancelFailsAcceptAtOnce(t *testing.T) {
	// A worker that will never dial in: Cancel must end the pending Accept
	// with its cause long before the bootstrap timeout.
	b, err := ListenTCP(TCPConfig{Addr: "127.0.0.1:0", Rank: 0, Size: 2,
		Deadline: 2 * time.Second, BootstrapTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("worker exited")
	done := make(chan error, 1)
	go func() {
		tr, err := b.Accept()
		if err == nil {
			tr.Close()
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Accept block
	b.Cancel(cause)
	select {
	case err := <-done:
		if !errors.Is(err, cause) {
			t.Fatalf("Accept after Cancel: %v, want the cancel cause", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Accept still blocked after Cancel")
	}
}

func TestBootstrapCancelAfterAdmissionIsIgnored(t *testing.T) {
	// Once every worker has registered, a late Cancel must not tear down
	// the world it completed.
	cfg := TCPConfig{Addr: "127.0.0.1:0", Rank: 0, Size: 2,
		Deadline: 2 * time.Second, BootstrapTimeout: 20 * time.Second}
	b, err := ListenTCP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	worker := make(chan *TCP, 1)
	go func() {
		w := cfg
		w.Addr, w.Rank = b.Addr(), 1
		tr, err := NewTCP(w)
		if err != nil {
			t.Error(err)
		}
		worker <- tr
	}()
	tr0, err := b.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer tr0.Close()
	tr1 := <-worker
	if tr1 == nil {
		t.FailNow()
	}
	defer tr1.Close()
	b.Cancel(errors.New("too late"))
	ep0, ep1 := tr0.Endpoint(0), tr1.Endpoint(1)
	if err := ep0.Send(1, 9, []byte("hi"), 0); err != nil {
		t.Fatalf("send after late Cancel: %v", err)
	}
	m, err := ep1.Recv(0, 9)
	if err != nil || string(m.Data) != "hi" {
		t.Fatalf("recv after late Cancel: %q, %v", m.Data, err)
	}
}
