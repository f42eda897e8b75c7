package jobsvc

import (
	"fmt"
	"os"
	"os/exec"
	"sort"
	"sync"
	"time"

	"mimir/internal/membership"
	"mimir/internal/transport"
)

// Mesh is one incarnation of the standing rank mesh: the rank-0 side's
// transport plus whatever teardown releases the incarnation's resources
// (reaping worker processes, joining worker goroutines). Close must be safe
// to call on a mesh that already died.
//
// Resize and Alive are the elastic extensions, both optional. Resize
// transitions the manager behind this mesh to the next incarnation without
// restarting the surviving workers; when nil the server closes the old mesh
// and calls the factory's Build for the new one (in-process meshes, where
// "restarting" a worker costs nothing). Alive reports whether the process
// serving a member is still running — the liveness probe transitions use to
// turn crashes into implicit leaves; nil means the server falls back to the
// suspect rank reported by the failing job.
type Mesh struct {
	Transport transport.Transport
	Close     func()
	Resize    func(spec ResizeSpec) (Mesh, error)
	Alive     func(member membership.MemberID) bool
}

// WorkerCred identifies a worker seat to the process filling it: the member
// ID the coordinator assigned and the member token it authenticates its
// rejoin requests with.
type WorkerCred struct {
	Member membership.MemberID
	Token  string
}

// MeshSpec describes the incarnation Build must produce.
type MeshSpec struct {
	Size  int
	Epoch uint64
	// Workers carries each worker rank's credential (rank 0 is the server
	// itself). In-process factories may ignore it.
	Workers map[int]WorkerCred
}

// Seat is a survivor's place in the next incarnation.
type Seat struct {
	Rank   int
	Member membership.MemberID
}

// ResizeSpec describes one mesh transition for Mesh.Resize.
type ResizeSpec struct {
	Size  int
	Epoch uint64
	// Survivors maps old rank -> next seat for workers that carry over.
	Survivors map[int]Seat
	// Retire maps old rank -> member for workers whose seat is gone.
	Retire map[int]membership.MemberID
	// Fresh maps new rank -> credential for seats the manager must fill by
	// forking new worker processes.
	Fresh map[int]WorkerCred
	// Graceful means the old mesh is healthy: survivors and retirees can be
	// told their fate over the old control channel. When false the old mesh
	// is dead and every survivor finds the new incarnation by rejoining
	// through the admin socket.
	Graceful bool
	// Notify, when non-nil, is called with the new incarnation's bootstrap
	// address as soon as its listener is up — before any directive is sent
	// or worker forked — so the server can publish attachments for workers
	// that arrive via the admin socket.
	Notify func(addr string)
}

// MeshFactory builds mesh incarnations. Size is the bootstrap world size;
// WorkerKind is the membership kind of the workers the factory provides
// (membership.KindLocal, KindSpawned, ...), which tells the coordinator what
// to label fresh seats.
type MeshFactory interface {
	Size() int
	WorkerKind() string
	Build(spec MeshSpec) (Mesh, error)
}

// funcFactory adapts a build function to MeshFactory.
type funcFactory struct {
	size  int
	kind  string
	build func(MeshSpec) (Mesh, error)
}

func (f funcFactory) Size() int                      { return f.size }
func (f funcFactory) WorkerKind() string             { return f.kind }
func (f funcFactory) Build(s MeshSpec) (Mesh, error) { return f.build(s) }

// NewMeshFactory wraps a build function as a MeshFactory (test harnesses
// that host worker ranks in-process but off the Local transport).
func NewMeshFactory(size int, kind string, build func(MeshSpec) (Mesh, error)) MeshFactory {
	return funcFactory{size: size, kind: kind, build: build}
}

// LocalMesh returns a MeshFactory hosting all ranks in this process on the
// in-process transport. There are no worker loops: the server's own
// execJob runs every rank, exactly as driver jobs do on in-process worlds.
// This is the fast path for tests and for a single-node daemon without
// process isolation. Resizes rebuild the world — in-process ranks are free.
func LocalMesh(size int) MeshFactory {
	return funcFactory{size: size, kind: membership.KindLocal, build: func(spec MeshSpec) (Mesh, error) {
		n := spec.Size
		if n == 0 {
			n = size
		}
		if n < 1 {
			return Mesh{}, fmt.Errorf("jobsvc: invalid mesh size %d", n)
		}
		tr := transport.NewLocal(n)
		return Mesh{Transport: tr, Close: func() {
			tr.Abort(fmt.Errorf("%w: jobsvc: mesh closed", transport.ErrAborted))
			tr.Close()
		}}, nil
	}}
}

// SpawnMesh returns the elastic process-backed MeshFactory: this process is
// rank 0 of a TCP mesh and worker seats are filled by forked copies of this
// binary (which must detect the MIMIR_TCP_* environment and run
// RunWorkerLoop). admin is the server's admin address, forwarded to every
// forked worker so it can rejoin after a crash-triggered transition; ""
// disables rejoin (workers die with their incarnation).
//
// The factory's meshes implement Resize — surviving worker processes carry
// over between incarnations via remesh directives (graceful) or admin
// rejoin (after a fault) — and Alive, backed by process liveness.
func SpawnMesh(size int, admin string, opts transport.SpawnOptions) MeshFactory {
	m := &elasticManager{
		size:  size,
		admin: admin,
		opts:  opts,
		procs: make(map[membership.MemberID]*elasticProc),
	}
	return funcFactory{size: size, kind: membership.KindSpawned, build: m.build}
}

// elasticManager owns the worker processes of a spawned mesh across every
// incarnation. Processes are keyed by member ID, never by rank: ranks are
// epoch-scoped names and a failed transition attempt reshuffles them, but a
// process serves one member for its whole life.
type elasticManager struct {
	size  int
	admin string
	opts  transport.SpawnOptions

	mu    sync.Mutex
	procs map[membership.MemberID]*elasticProc
}

type elasticProc struct {
	cmd  *exec.Cmd
	done chan struct{}
}

func (p *elasticProc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

func (m *elasticManager) tcpConfig(size int, epoch uint64) transport.TCPConfig {
	cfg := m.opts.Options.TCPConfig("127.0.0.1:0", 0, size)
	cfg.WrapConn = m.opts.WrapConn
	cfg.Epoch = epoch
	return cfg
}

// fork launches one worker process for a seat. The child joins the
// bootstrap via the MIMIR_TCP_* environment and authenticates future admin
// rejoins with its member credential.
func (m *elasticManager) fork(rank, size int, epoch uint64, addr string, cred WorkerCred) error {
	if cred.Member == 0 {
		return fmt.Errorf("jobsvc: fresh rank %d has no member credential", rank)
	}
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	cmd := exec.Command(exe, os.Args[1:]...)
	cmd.Env = append(os.Environ(),
		transport.EnvJoin+"="+addr,
		fmt.Sprintf("%s=%d", transport.EnvRank, rank),
		fmt.Sprintf("%s=%d", transport.EnvSize, size),
		fmt.Sprintf("%s=%d", transport.EnvEpoch, epoch),
	)
	cmd.Env = append(cmd.Env, m.opts.Options.Env()...)
	if m.admin != "" {
		cmd.Env = append(cmd.Env,
			EnvAdmin+"="+m.admin,
			fmt.Sprintf("%s=%d", EnvMember, cred.Member),
			EnvMemberToken+"="+cred.Token,
		)
	}
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("jobsvc: forking worker for rank %d: %w", rank, err)
	}
	p := &elasticProc{cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	m.mu.Lock()
	m.procs[cred.Member] = p
	m.mu.Unlock()
	return nil
}

func (m *elasticManager) build(spec MeshSpec) (Mesh, error) {
	b, err := transport.ListenTCP(m.tcpConfig(spec.Size, spec.Epoch))
	if err != nil {
		return Mesh{}, err
	}
	seated := make([]membership.MemberID, 0, spec.Size)
	for rank := 1; rank < spec.Size; rank++ {
		if err := m.fork(rank, spec.Size, spec.Epoch, b.Addr(), spec.Workers[rank]); err != nil {
			m.reapAll(0)
			return Mesh{}, err
		}
		seated = append(seated, spec.Workers[rank].Member)
	}
	stop := m.cancelOnExit(b, seated)
	t, err := b.Accept()
	stop()
	if err != nil {
		m.reapAll(2 * time.Second)
		return Mesh{}, err
	}
	return m.mesh(t), nil
}

func (m *elasticManager) mesh(t *transport.TCP) Mesh {
	return Mesh{
		Transport: t,
		Close: func() {
			t.Close()
			m.reapAll(15 * time.Second)
		},
		Resize: func(spec ResizeSpec) (Mesh, error) { return m.resize(t, spec) },
		Alive:  m.alive,
	}
}

func (m *elasticManager) alive(id membership.MemberID) bool {
	m.mu.Lock()
	p, ok := m.procs[id]
	m.mu.Unlock()
	return ok && p.alive()
}

// resize stands up the next incarnation's bootstrap, redirects or retires
// the old incarnation's workers, forks processes for fresh seats, and
// completes the bootstrap. On failure the stranded survivors find their way
// back through the admin socket (their NewTCP attempt dies with the failed
// bootstrap), so a later attempt with a fresh epoch can still reuse them.
func (m *elasticManager) resize(old *transport.TCP, spec ResizeSpec) (Mesh, error) {
	b, err := transport.ListenTCP(m.tcpConfig(spec.Size, spec.Epoch))
	if err != nil {
		return Mesh{}, err
	}
	if spec.Notify != nil {
		spec.Notify(b.Addr())
	}
	if spec.Graceful {
		// Directives go out over the old mesh's control channel in rank
		// order. Failures are tolerated: a worker that missed its directive
		// sees the old mesh die and rejoins through the admin socket, where
		// Notify already published its attachment.
		ep := old.Endpoint(0)
		ranks := make([]int, 0, len(spec.Survivors)+len(spec.Retire))
		for r := range spec.Survivors {
			ranks = append(ranks, r)
		}
		for r := range spec.Retire {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		for _, r := range ranks {
			var msg ctrlMsg
			if seat, ok := spec.Survivors[r]; ok {
				msg = ctrlMsg{Op: opRemesh, Remesh: &Remesh{
					Addr: b.Addr(), Rank: seat.Rank, Size: spec.Size, Epoch: spec.Epoch}}
			} else {
				msg = ctrlMsg{Op: opRetire}
			}
			data, err := ctrlJSON(msg)
			if err != nil {
				old.Close()
				b.Close()
				return Mesh{}, err
			}
			ep.Send(r, ctrlTag, data, 0)
		}
	}
	// The old incarnation ends here either way; survivors are mid-flight.
	old.Close()
	seated := make([]membership.MemberID, 0, len(spec.Survivors)+len(spec.Fresh))
	for _, seat := range spec.Survivors {
		seated = append(seated, seat.Member)
	}
	for rank, cred := range spec.Fresh {
		if err := m.fork(rank, spec.Size, spec.Epoch, b.Addr(), cred); err != nil {
			b.Close()
			return Mesh{}, err
		}
		seated = append(seated, cred.Member)
	}
	stop := m.cancelOnExit(b, seated)
	t, err := b.Accept()
	stop()
	if err != nil {
		return Mesh{}, err
	}
	// The incarnation is up: retired members exit on their own (reap them in
	// the background) and processes for members no longer seated anywhere
	// can be forgotten.
	keep := make(map[membership.MemberID]bool)
	for _, seat := range spec.Survivors {
		keep[seat.Member] = true
	}
	for _, cred := range spec.Fresh {
		keep[cred.Member] = true
	}
	m.mu.Lock()
	for id, p := range m.procs {
		if !keep[id] {
			delete(m.procs, id)
			go reapProc(p, 15*time.Second)
		}
	}
	m.mu.Unlock()
	return m.mesh(t), nil
}

// cancelOnExit cancels b as soon as the process serving any of members
// exits, and returns the func that stops watching. A seat whose process is
// gone will never dial in. That happens after a crash: the liveness probe
// can run before the dead worker has been reaped, so the plan seats it as
// a survivor. Cancelling fails the attempt at once instead of after the
// bootstrap timeout, and the next attempt probes again. Members without a
// process (external joiners) are not watched.
func (m *elasticManager) cancelOnExit(b *transport.Bootstrap, members []membership.MemberID) (stop func()) {
	quit := make(chan struct{})
	m.mu.Lock()
	for _, id := range members {
		p, ok := m.procs[id]
		if !ok {
			continue
		}
		go func(id membership.MemberID, p *elasticProc) {
			select {
			case <-p.done:
				b.Cancel(fmt.Errorf("jobsvc: the process of member %d exited", id))
			case <-quit:
			}
		}(id, p)
	}
	m.mu.Unlock()
	return func() { close(quit) }
}

func (m *elasticManager) reapAll(grace time.Duration) {
	m.mu.Lock()
	procs := make([]*elasticProc, 0, len(m.procs))
	for id, p := range m.procs {
		procs = append(procs, p)
		delete(m.procs, id)
	}
	m.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range procs {
		wg.Add(1)
		go func(p *elasticProc) {
			defer wg.Done()
			reapProc(p, grace)
		}(p)
	}
	wg.Wait()
}

func reapProc(p *elasticProc, grace time.Duration) {
	select {
	case <-p.done:
		return
	case <-time.After(grace):
	}
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
	<-p.done
}
