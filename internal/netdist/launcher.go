package netdist

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"os/exec"
	"strings"
	"sync"
	"time"

	"ndgraph/internal/graph"
)

// Launcher abstracts how worker processes are brought up and torn down,
// so the coordinator's supervision logic is identical whether workers are
// in-process goroutines (LocalLauncher: fast, race-detectable) or real OS
// processes (ExecLauncher: true crash isolation, SIGKILL-able).
type Launcher interface {
	// Start launches (or relaunches) worker id and returns its listen
	// address. A restarted worker keeps its id — and therefore its
	// checkpoint directory.
	Start(id int) (addr string, err error)
	// Stop tears worker id down. Idempotent.
	Stop(id int) error
	// Kill terminates worker id abruptly — SIGKILL for processes, context
	// cancellation for goroutine workers. Fault-injection entry point: the
	// coordinator is NOT told, it must notice via missed heartbeats.
	Kill(id int) error
	// Close stops everything.
	Close() error
}

// --- LocalLauncher: goroutine workers on loopback TCP ---

// LocalLauncher runs each worker as RunWorker in a goroutine with a real
// loopback TCP listener. Kill cancels the worker's context: its listener
// and connections close and all in-memory state is abandoned, which is
// the closest in-process analog of SIGKILL (checkpoints on disk are all
// that survives, exactly as with a real process). The graph is the one
// exception: it is immutable and a pure function of the job's spec, so the
// launcher's workers share one build of it (graphMemo), and a worker
// restarted after a kill reuses the build its peers still hold.
type LocalLauncher struct {
	mu     sync.Mutex
	procs  map[int]*localProc
	graphs graphMemo
	wg     sync.WaitGroup // worker goroutines
}

type localProc struct {
	cancel context.CancelFunc
	ln     net.Listener
}

// NewLocalLauncher returns an empty launcher.
func NewLocalLauncher() *LocalLauncher {
	return &LocalLauncher{procs: make(map[int]*localProc)}
}

// Start implements Launcher.
func (l *LocalLauncher) Start(id int) (string, error) {
	_ = l.Stop(id)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithCancel(context.Background())
	l.mu.Lock()
	l.procs[id] = &localProc{cancel: cancel, ln: ln}
	l.mu.Unlock()
	l.wg.Add(1)
	go func() { defer l.wg.Done(); _ = runWorker(ctx, ln, &l.graphs) }()
	return ln.Addr().String(), nil
}

// Stop implements Launcher.
func (l *LocalLauncher) Stop(id int) error {
	l.mu.Lock()
	p := l.procs[id]
	delete(l.procs, id)
	l.mu.Unlock()
	if p != nil {
		p.cancel()
		p.ln.Close()
	}
	return nil
}

// Kill implements Launcher. For goroutine workers a kill and a stop are
// the same mechanism; the distinction matters for ExecLauncher.
func (l *LocalLauncher) Kill(id int) error { return l.Stop(id) }

// Close implements Launcher. It returns once every worker goroutine the
// launcher started has exited, so no worker, and no graph the workers
// shared, outlives it. A worker still serving a coordinator connection
// exits when that connection closes, as Run's do before Run returns.
func (l *LocalLauncher) Close() error {
	l.mu.Lock()
	procs := l.procs
	l.procs = make(map[int]*localProc)
	l.mu.Unlock()
	for _, p := range procs {
		p.cancel()
		p.ln.Close()
	}
	l.wg.Wait()
	return nil
}

// graphMemo shares one build per graph spec among the workers of one
// LocalLauncher, which are goroutines in one address space. Builds are
// single-flight: the first worker to ask builds, the others wait for its
// result. An entry lives while some worker holds it and is dropped with
// the last release, so nothing is cached across jobs. The zero value is
// ready to use; a nil *graphMemo builds a private copy per worker, as
// worker processes must.
type graphMemo struct {
	mu      sync.Mutex
	entries map[[sha256.Size]byte]*memoEntry // by the spec's JSON digest
}

type memoEntry struct {
	done chan struct{} // closed once g and err are set
	g    *graph.Graph
	err  error
	refs int
}

// acquire returns the graph of spec and the release the caller must call
// once it no longer uses the graph.
func (m *graphMemo) acquire(spec GraphSpec) (*graph.Graph, func(), error) {
	if m == nil {
		g, err := spec.Build()
		return g, func() {}, err
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, nil, err
	}
	key := sha256.Sum256(b)
	m.mu.Lock()
	e := m.entries[key]
	build := e == nil
	if build {
		if m.entries == nil {
			m.entries = make(map[[sha256.Size]byte]*memoEntry)
		}
		e = &memoEntry{done: make(chan struct{})}
		m.entries[key] = e
	}
	e.refs++
	m.mu.Unlock()
	if build {
		e.g, e.err = spec.Build()
		close(e.done)
	}
	<-e.done
	release := func() {
		m.mu.Lock()
		if e.refs--; e.refs == 0 {
			delete(m.entries, key)
		}
		m.mu.Unlock()
	}
	if e.err != nil {
		release()
		return nil, nil, e.err
	}
	return e.g, release, nil
}

// --- ExecLauncher: real worker processes (cmd/ndworker) ---

// ExecLauncher runs each worker as a separate OS process executing the
// ndworker binary. The worker prints "LISTEN <addr>" on stdout once its
// listener is up; Kill delivers SIGKILL, so recovery genuinely exercises
// the checkpoint-restore path with no lingering in-memory state.
type ExecLauncher struct {
	// Bin is the path to the ndworker binary.
	Bin string

	mu    sync.Mutex
	procs map[int]*exec.Cmd
}

// NewExecLauncher returns a launcher spawning bin per worker.
func NewExecLauncher(bin string) *ExecLauncher {
	return &ExecLauncher{Bin: bin, procs: make(map[int]*exec.Cmd)}
}

// Start implements Launcher.
func (e *ExecLauncher) Start(id int) (string, error) {
	_ = e.Stop(id)
	cmd := exec.Command(e.Bin)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", err
	}
	if err := cmd.Start(); err != nil {
		return "", err
	}
	// The worker's first line of stdout announces its listen address.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "LISTEN "); ok {
				addrCh <- strings.TrimSpace(rest)
				break
			}
		}
		close(addrCh)
		// Keep draining so the child never blocks on a full pipe.
		for sc.Scan() {
		}
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			_ = cmd.Process.Kill()
			return "", fmt.Errorf("netdist: worker %d exited before announcing its address", id)
		}
		e.mu.Lock()
		e.procs[id] = cmd
		e.mu.Unlock()
		return addr, nil
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		return "", fmt.Errorf("netdist: worker %d did not announce an address", id)
	}
}

// Stop implements Launcher (kill + reap; ndworker has no graceful stop
// beyond the coordinator's shutdown frame, which Run already sends).
func (e *ExecLauncher) Stop(id int) error {
	e.mu.Lock()
	cmd := e.procs[id]
	delete(e.procs, id)
	e.mu.Unlock()
	if cmd == nil {
		return nil
	}
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
	return nil
}

// Kill implements Launcher: SIGKILL, no reap bookkeeping beyond Wait.
func (e *ExecLauncher) Kill(id int) error { return e.Stop(id) }

// Close implements Launcher.
func (e *ExecLauncher) Close() error {
	e.mu.Lock()
	ids := make([]int, 0, len(e.procs))
	for id := range e.procs {
		ids = append(ids, id)
	}
	e.mu.Unlock()
	for _, id := range ids {
		_ = e.Stop(id)
	}
	return nil
}
