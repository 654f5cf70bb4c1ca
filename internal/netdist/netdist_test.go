package netdist

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ndgraph/internal/algorithms"
	"ndgraph/internal/graph"
	"ndgraph/internal/loader"
)

// fastOpts returns options tuned for test latency: tight heartbeats and
// retransmission timeouts so failure detection and recovery land in tens
// of milliseconds instead of seconds.
func fastOpts(workers int, g GraphSpec, a AlgoSpec) Options {
	return Options{
		Workers:   workers,
		Graph:     g,
		Algo:      a,
		RTO:       50 * time.Millisecond,
		Heartbeat: 20 * time.Millisecond,
		// A 500ms miss horizon: still fast enough to catch the kills the
		// fault tests inject, but wide enough that race-detector slowdown
		// or a loaded CI box cannot fake a death from a late heartbeat.
		HeartbeatMiss: 25,
		CkptOps:       256,
		Timeout:       60 * time.Second,
	}
}

func mustBuild(t *testing.T, spec GraphSpec) *graph.Graph {
	t.Helper()
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func checkWCC(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	want := algorithms.ReferenceWCC(g)
	got := res.Labels()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: label %d, want %d", v, got[v], want[v])
		}
	}
}

func checkDistances(t *testing.T, g *graph.Graph, res *Result, source uint32, weights []float64) {
	t.Helper()
	want := algorithms.ReferenceSSSP(g, source, weights)
	got := res.Floats()
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("vertex %d: dist %v, want %v (not byte-identical)", v, got[v], want[v])
		}
	}
}

var testRMAT = GraphSpec{Kind: "rmat", N: 500, M: 2500, Seed: 42}

func TestDistWCC(t *testing.T) {
	g := mustBuild(t, testRMAT)
	res, err := Run(context.Background(), fastOpts(4, testRMAT, AlgoSpec{Name: "wcc"}))
	if err != nil {
		t.Fatal(err)
	}
	checkWCC(t, g, res)
	if res.Restarts != 0 {
		t.Fatalf("unexpected restarts: %d", res.Restarts)
	}
}

// TestRunReleasesLocalWorkers is the regression test for the stranded
// LocalLauncher worker: when teardown closed the listener first, the accept
// loop's send filled RunWorker's one-slot done channel and the control
// handler's send then blocked for ever under wg.Wait, leaking the worker
// (goroutines and graph partition) on about half the calls. Every
// goroutine a Run starts must be gone once it has returned.
func TestRunReleasesLocalWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		if _, err := Run(context.Background(), fastOpts(2, testRMAT, AlgoSpec{Name: "wcc"})); err != nil {
			t.Fatal(err)
		}
	}
	// Launcher.Stop does not wait for its worker to unwind, so poll.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before 8 runs, %d still alive 10 s after:\n%s",
				base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMonotoneKernelsCertified: every monotone algorithm netdist accepts
// runs the algorithms.Kernel of that name, and the embedded kernel
// certificate admits it — the certificate describes the code the workers
// run.
func TestMonotoneKernelsCertified(t *testing.T) {
	g := mustBuild(t, testRMAT)
	tab, err := NewTable(g.N(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"wcc", "bfs", "sssp"} {
		mk, err := newKernel(AlgoSpec{Name: name, Source: 1, WeightSeed: 3}, g, tab, 1)
		if err != nil {
			t.Fatal(err)
		}
		if mk.kern.Name != name {
			t.Errorf("%s: runs kernel %q", name, mk.kern.Name)
		}
		cert, err := algorithms.CertificateFor("kernel", mk.kern.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := cert.AdmitKernel(mk.kern.Name, mk.kern.FirstOfferWins); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if name != "wcc" {
			if _, err := newKernel(AlgoSpec{Name: name, Source: uint32(g.N())}, g, tab, 0); err == nil {
				t.Errorf("%s: source %d accepted on a %d-vertex graph", name, g.N(), g.N())
			}
		}
	}
}

// TestMonotoneDeliver: a delivery along an owned in-edge reaches its
// destination through the CSR; one along another worker's edge, or past the
// edge count, is a stale frame and changes nothing.
func TestMonotoneDeliver(t *testing.T) {
	g := mustBuild(t, GraphSpec{Kind: "chain", N: 4}) // edges e0 0→1, e1 1→2, e2 2→3
	tab, err := NewTable(g.N(), 2)
	if err != nil {
		t.Fatal(err)
	}
	k, err := newKernel(AlgoSpec{Name: "bfs"}, g, tab, 1) // owns [2, 4)
	if err != nil {
		t.Fatal(err)
	}
	k.reset()
	one := math.Float64bits(1)
	for _, tc := range []struct {
		name    string
		e       uint32
		v       uint32
		adopted bool
	}{
		{"owned", 1, 2, true},
		{"owned-again", 1, 2, false},
		{"foreign", 0, 0, false},
		{"past-M", uint32(g.M()), 0, false},
	} {
		v, adopted := k.deliver(tc.e, one)
		if v != tc.v || adopted != tc.adopted {
			t.Errorf("%s: deliver(e%d) = (%d, %v), want (%d, %v)",
				tc.name, tc.e, v, adopted, tc.v, tc.adopted)
		}
	}
	if got := k.vals; got[0] != one || got[1] != math.Float64bits(math.Inf(1)) {
		t.Errorf("values after deliveries = %v", got)
	}
}

func TestDistBFS(t *testing.T) {
	g := mustBuild(t, testRMAT)
	res, err := Run(context.Background(), fastOpts(4, testRMAT, AlgoSpec{Name: "bfs", Source: 1}))
	if err != nil {
		t.Fatal(err)
	}
	checkDistances(t, g, res, 1, algorithms.NewBFS(g, 1).Weights)
}

func TestDistSSSP(t *testing.T) {
	g := mustBuild(t, testRMAT)
	a := AlgoSpec{Name: "sssp", Source: 1, WeightSeed: 99}
	res, err := Run(context.Background(), fastOpts(4, testRMAT, a))
	if err != nil {
		t.Fatal(err)
	}
	checkDistances(t, g, res, 1, algorithms.NewSSSP(g, 1, 99).Weights)
}

func TestDistSingleWorker(t *testing.T) {
	g := mustBuild(t, testRMAT)
	res, err := Run(context.Background(), fastOpts(1, testRMAT, AlgoSpec{Name: "wcc"}))
	if err != nil {
		t.Fatal(err)
	}
	checkWCC(t, g, res)
}

// TestRunReportsPhases: a converged job reports all three serial phases,
// and together they fit in its Duration. A job whose workers never became
// ready never started computing or fetching.
func TestRunReportsPhases(t *testing.T) {
	res, err := Run(context.Background(), fastOpts(2, testRMAT, AlgoSpec{Name: "sssp", Source: 1, WeightSeed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ready <= 0 || res.Compute <= 0 || res.Fetch <= 0 || res.Ready+res.Compute+res.Fetch > res.Duration {
		t.Fatalf("phases ready %v + compute %v + fetch %v, duration %v", res.Ready, res.Compute, res.Fetch, res.Duration)
	}
	res, err = Run(context.Background(), fastOpts(2, GraphSpec{Kind: "bogus", N: 100}, AlgoSpec{Name: "wcc"}))
	if err == nil || res.Ready <= 0 || res.Compute != 0 || res.Fetch != 0 || res.Ready > res.Duration {
		t.Fatalf("failed init: err %v, phases ready %v compute %v fetch %v, duration %v", err, res.Ready, res.Compute, res.Fetch, res.Duration)
	}
}

// TestLocalLauncherBuildsOnce: a LocalLauncher's workers are goroutines in
// one process, so all of a job's workers run on one build of its graph.
func TestLocalLauncherBuildsOnce(t *testing.T) {
	prev := testKernel
	t.Cleanup(func() { testKernel = prev })
	var mu sync.Mutex
	seen := map[*graph.Graph]int{}
	testKernel = func(name string) (algorithms.Kernel, bool) {
		k := algorithms.BFSKernel(1)
		init := k.Init
		k.Init = func(g *graph.Graph) ([]uint64, []int) {
			mu.Lock()
			seen[g]++
			mu.Unlock()
			return init(g)
		}
		return k, name == "shared-bfs"
	}
	res, err := Run(context.Background(), fastOpts(3, testRMAT, AlgoSpec{Name: "shared-bfs"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 {
		t.Fatalf("3 workers ran on %d graphs: %v", len(seen), seen)
	}
	for _, n := range seen {
		if n != 3 {
			t.Fatalf("%d of 3 workers ran on the shared graph", n)
		}
	}
	g := mustBuild(t, testRMAT)
	checkDistances(t, g, res, 1, algorithms.NewBFS(g, 1).Weights)
}

// TestIdleNoticeEndsRunBeforeTick: the workers' idle notices start the
// quiescence sweeps, so a job ends without waiting for the probe tick (2 s
// at a 1 s heartbeat), and still at the exact fixed point.
func TestIdleNoticeEndsRunBeforeTick(t *testing.T) {
	g := mustBuild(t, testRMAT)
	a := AlgoSpec{Name: "sssp", Source: 1, WeightSeed: 11}
	res, err := Run(context.Background(), Options{Workers: 2, Graph: testRMAT, Algo: a, Heartbeat: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	checkDistances(t, g, res, 1, algorithms.NewSSSP(g, 1, 11).Weights)
	if res.Duration >= time.Second {
		t.Fatalf("run took %v: it waited for the probe tick", res.Duration)
	}
}

// TestDistFetchesLargePartition: a worker owning more vertices than one
// frame holds values for sends them in several frames, and the coordinator
// assembles them all. One frame used to fail to send, and the converged run
// then timed out waiting for it.
func TestDistFetchesLargePartition(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a graph of 2.1 M vertices")
	}
	n := maxValueWords + 1000
	res, err := Run(context.Background(), fastOpts(1, GraphSpec{Kind: "edges", N: n, Edges: [][2]uint32{{0, uint32(n - 1)}}}, AlgoSpec{Name: "bfs"}))
	if err != nil {
		t.Fatal(err)
	}
	got := res.Floats()
	for v, d := range got {
		want := math.Inf(1)
		switch v {
		case 0:
			want = 0
		case n - 1:
			want = 1
		}
		if d != want {
			t.Fatalf("vertex %d: dist %v, want %v", v, d, want)
		}
	}
}

// TestDistFileSpec: workers that load a saved graph file compute the same
// values as workers that generate it, and a file that cannot be loaded, or
// does not match the spec, fails the workers' init.
func TestDistFileSpec(t *testing.T) {
	g := mustBuild(t, testRMAT)
	path := filepath.Join(t.TempDir(), "rmat.bin")
	if err := loader.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	a := AlgoSpec{Name: "sssp", Source: 1, WeightSeed: 99}
	want, err := Run(context.Background(), fastOpts(2, testRMAT, a))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), fastOpts(2, GraphSpec{Kind: "file", Path: path, N: g.N()}, a))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Values, want.Values) {
		t.Fatal("values from the graph file differ from the generated graph's")
	}
	for _, tc := range []struct {
		spec GraphSpec
		want string
	}{
		{GraphSpec{Kind: "file", Path: filepath.Join(t.TempDir(), "missing.bin"), N: g.N()}, "netdist: worker 0 init: open "},
		{GraphSpec{Kind: "file", Path: path, N: 400}, fmt.Sprintf("has %d vertices, spec says 400", g.N())},
	} {
		if _, err := Run(context.Background(), fastOpts(2, tc.spec, a)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want one containing %q", tc.spec, err, tc.want)
		}
	}
}

// TestDistFaultyLinks runs WCC through the fault proxy with heavy frame
// drops, duplicates, and reorders on every data link. At-least-once
// retransmission plus the idempotent monotone merge must still converge
// to the exact fixed point.
func TestDistFaultyLinks(t *testing.T) {
	g := mustBuild(t, testRMAT)
	proxy := NewProxy()
	defer proxy.Close()
	proxy.SetPlan(ProxyPlan{DropProb: 0.3, DupProb: 0.25, ReorderProb: 0.25, Seed: 11})

	opt := fastOpts(4, testRMAT, AlgoSpec{Name: "wcc"})
	opt.Proxy = proxy
	res, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	checkWCC(t, g, res)
	if res.Restarts != 0 {
		t.Fatalf("faulty links caused %d restarts; they should be survived in place", res.Restarts)
	}
}

// TestDistPartitionHeal isolates one worker's data plane for the first
// stretch of the run. The worker keeps heartbeating (control is not
// proxied), so the coordinator must NOT restart it — graceful
// degradation — and after the heal the retransmitted backlog plus the
// monotone merge must reconcile both sides to the exact fixed point.
func TestDistPartitionHeal(t *testing.T) {
	g := mustBuild(t, testRMAT)
	proxy := NewProxy()
	defer proxy.Close()
	proxy.Isolate(1)
	go func() {
		time.Sleep(400 * time.Millisecond)
		proxy.Heal()
	}()

	opt := fastOpts(4, testRMAT, AlgoSpec{Name: "sssp", Source: 1, WeightSeed: 5})
	opt.Proxy = proxy
	res, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	checkDistances(t, g, res, 1, algorithms.NewSSSP(g, 1, 5).Weights)
	if res.Restarts != 0 {
		t.Fatalf("partitioned-but-alive worker was restarted %d times", res.Restarts)
	}
}

// TestDistKillRestoreRepair kills a worker mid-run. The coordinator must
// notice via missed heartbeats, restart it from its checkpoint (or cold),
// broadcast the Theorem-2 boundary repair, and still converge to the
// exact fixed point. Worker 2 stays isolated during the kill so the run
// cannot quiesce before the crash is injected.
func TestDistKillRestoreRepair(t *testing.T) {
	g := mustBuild(t, testRMAT)
	proxy := NewProxy()
	defer proxy.Close()
	launcher := NewLocalLauncher()
	defer launcher.Close()
	proxy.Isolate(2)
	go func() {
		time.Sleep(500 * time.Millisecond)
		_ = launcher.Kill(1)
		time.Sleep(600 * time.Millisecond)
		proxy.Heal()
	}()

	opt := fastOpts(4, testRMAT, AlgoSpec{Name: "wcc"})
	opt.Proxy = proxy
	opt.Launcher = launcher
	opt.CkptOps = 64
	res, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	checkWCC(t, g, res)
	if res.Restarts < 1 {
		t.Fatalf("killed worker was never restarted (restarts=%d)", res.Restarts)
	}
	if res.Repairs < opt.Workers-1 {
		t.Fatalf("repairs=%d, want at least %d boundary repairs", res.Repairs, opt.Workers-1)
	}
}

// TestChaosSmoke is the ci.sh chaos gate: real ndworker processes via
// ExecLauncher, one SIGKILL, and a 30% drop window, asserting exact
// reconvergence. Gated behind NDGRAPH_CHAOS=1 because it builds a binary
// and spawns processes.
func TestChaosSmoke(t *testing.T) {
	if os.Getenv("NDGRAPH_CHAOS") != "1" {
		t.Skip("set NDGRAPH_CHAOS=1 to run the chaos smoke test")
	}
	bin := filepath.Join(t.TempDir(), "ndworker")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ndworker")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build ndworker: %v\n%s", err, out)
	}

	g := mustBuild(t, testRMAT)
	proxy := NewProxy()
	defer proxy.Close()
	launcher := NewExecLauncher(bin)
	defer launcher.Close()
	proxy.Isolate(2) // hold the run open until faults are injected
	go func() {
		time.Sleep(700 * time.Millisecond)
		proxy.SetPlan(ProxyPlan{DropProb: 0.3, Seed: 3}) // open the drop window
		_ = launcher.Kill(1)                             // SIGKILL a real process
		time.Sleep(900 * time.Millisecond)
		proxy.SetPlan(ProxyPlan{}) // close the drop window
		proxy.Heal()
	}()

	opt := fastOpts(3, testRMAT, AlgoSpec{Name: "bfs", Source: 1})
	opt.Proxy = proxy
	opt.Launcher = launcher
	opt.CkptOps = 64
	res, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	checkDistances(t, g, res, 1, algorithms.NewBFS(g, 1).Weights)
	if res.Restarts < 1 {
		t.Fatalf("SIGKILLed worker was never restarted (restarts=%d)", res.Restarts)
	}
	t.Logf("chaos smoke: restarts=%d repairs=%d sweeps=%d in %v",
		res.Restarts, res.Repairs, res.Sweeps, res.Duration)
}
