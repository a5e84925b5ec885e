package runtime

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/abd"
	"repro/internal/cas"
	"repro/internal/cluster"
	"repro/internal/coded"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/register"
)

// recoverLate schedules every server of the cluster to crash and recover at
// steps no run reaches: each becomes a node the plan recovers, so the
// durability rule applies to it, while its crash and recovery are the
// test's to fire.
func recoverLate(cl *cluster.Cluster) *faults.Plan {
	plan := &faults.Plan{}
	for _, id := range cl.Servers {
		plan.Crashes = append(plan.Crashes, faults.Crash{Node: id, Step: 1<<30 - 1, RecoverStep: 1 << 30})
	}
	return plan
}

// imageLink is the chan link with a check in front: every send from a node
// the plan recovers must leave no later than the image a recovery would
// restart that node from, that is, the image must have the live automaton's
// state digest.
type imageLink struct {
	*chanLink
	checked, ahead atomic.Int64
}

func (l *imageLink) send(from, to *nodeState, msg ioa.Message, inLoop bool) {
	if from.image != nil {
		l.checked.Add(1)
		if from.image.(ioa.Digester).StateDigest() != from.node.(ioa.Digester).StateDigest() {
			l.ahead.Add(1)
		}
	}
	l.chanLink.send(from, to, msg, inLoop)
}

// TestNoSendAheadOfItsImage holds every deployable with recovering servers
// to the durability rule under a write+read loop: no server sends anything
// that a crash right after the send could take back.
func TestNoSendAheadOfItsImage(t *testing.T) {
	opts := abd.Options{Servers: 5, F: 1, Writers: 1, Readers: 1, MultiWriter: true}
	copts := coded.Options{Servers: 5, F: 1, Readers: 1}
	for _, c := range []struct {
		name   string
		deploy func() (*cluster.Cluster, error)
	}{
		{"abd-mwmr", func() (*cluster.Cluster, error) { return abd.Deploy(opts) }},
		{"casgc", func() (*cluster.Cluster, error) {
			return cas.Deploy(cas.Options{Servers: 5, F: 1, GCDepth: 0, Writers: 1, Readers: 1})
		}},
		{"twoversion", func() (*cluster.Cluster, error) { return coded.Deploy(copts) }},
		{"twoversion-gossip", func() (*cluster.Cluster, error) { return coded.DeployGossip(copts) }},
		{"solo", func() (*cluster.Cluster, error) {
			return coded.DeploySolo(coded.Options{Servers: 5, F: 1, Readers: 1})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cl, err := c.deploy()
			if err != nil {
				t.Fatal(err)
			}
			var l *imageLink
			rt, err := newRuntime(cl, recoverLate(cl), Config{}, nil, func(rt *runtime) link {
				l = &imageLink{chanLink: &chanLink{rt: rt}}
				return l
			})
			if err != nil {
				t.Fatal(err)
			}
			rt.start()
			t.Cleanup(rt.stop)
			ctx := context.Background()
			for i := 0; i < 20; i++ {
				for _, inv := range []struct {
					client ioa.NodeID
					inv    ioa.Invocation
				}{
					{cl.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: register.MakeValue(64, uint64(i))}},
					{cl.Readers[0], ioa.Invocation{Kind: ioa.OpRead}},
				} {
					if _, _, ok := rt.invokeAsync(inv.client, inv.inv).wait(ctx, rt.cfg.OpTimeout); !ok {
						t.Fatalf("op %d (%v) did not complete", i, inv.inv.Kind)
					}
				}
			}
			if l.checked.Load() == 0 {
				t.Fatal("no send from a recovering server was checked")
			}
			if ahead := l.ahead.Load(); ahead != 0 {
				t.Errorf("%d of %d sends from recovering servers left ahead of their image", ahead, l.checked.Load())
			}
		})
	}
}

// TestAckedWriteSurvivesImmediateCrash crashes and recovers every server as
// soon as a write has completed, with no wait in between: the write was
// acknowledged by a quorum, so the read that follows must return it from the
// recovered servers' images.
func TestAckedWriteSurvivesImmediateCrash(t *testing.T) {
	bothLinks(t, func(t *testing.T, mkLink func(*runtime) link) {
		cl := abdCluster(t)
		rt, err := newRuntime(cl, recoverLate(cl), Config{}, nil, mkLink)
		if err != nil {
			t.Fatal(err)
		}
		rt.start()
		t.Cleanup(rt.stop)
		ctx := context.Background()
		val := []byte("acknowledged-then-every-server-crashed")
		if _, _, ok := rt.invokeAsync(cl.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: val}).wait(ctx, rt.cfg.OpTimeout); !ok {
			t.Fatal("write did not complete")
		}
		for _, id := range cl.Servers {
			rt.crashNode(id)
			rt.recoverNode(id)
		}
		out, _, ok := rt.invokeAsync(cl.Readers[0], ioa.Invocation{Kind: ioa.OpRead}).wait(ctx, rt.cfg.OpTimeout)
		if !ok {
			t.Fatal("read after the crash did not complete")
		}
		if string(out) != string(val) {
			t.Fatalf("read %q after every server crashed and recovered, want the acknowledged %q", out, val)
		}
	})
}

// TestPutToDownServerIsLost holds the simulator and both links to one crash
// model: on abd with N=5 and f=1, server 5 crashes, a write completes on the
// other four, and server 5 recovers. The write's put to server 5 was lost
// and counted once, and the recovered server does not hold the write's
// tag: a message to a down node is never received, on every backend.
func TestPutToDownServerIsLost(t *testing.T) {
	write := ioa.Invocation{Kind: ioa.OpWrite, Value: []byte("written while server 5 was down")}
	deploy := func(t *testing.T) (cl *cluster.Cluster, down ioa.NodeID, pristine string) {
		t.Helper()
		cl, err := abd.Deploy(abd.Options{Servers: 5, F: 1, Writers: 1, Readers: 1})
		if err != nil {
			t.Fatal(err)
		}
		down = cl.Servers[4]
		n, err := cl.Sys.Node(down)
		if err != nil {
			t.Fatal(err)
		}
		return cl, down, n.(ioa.Digester).StateDigest()
	}
	judge := func(t *testing.T, lost int, got, pristine string) {
		t.Helper()
		if lost != 1 {
			t.Errorf("%d messages counted lost, want the put to the down server", lost)
		}
		if got != pristine {
			t.Errorf("recovered server holds %s, want its state from before the write, %s", got, pristine)
		}
	}
	t.Run("sim", func(t *testing.T) {
		cl, down, pristine := deploy(t)
		sys := cl.Sys
		sys.Crash(down)
		if _, err := sys.RunOp(cl.Writers[0], write, 1000); err != nil {
			t.Fatal(err)
		}
		sys.Recover(down)
		if err := sys.FairRun(1000, nil); !errors.Is(err, ioa.ErrQuiescent) {
			t.Fatalf("draining after the recovery: %v", err)
		}
		n, _ := sys.Node(down)
		judge(t, sys.FaultStats().Drops, n.(ioa.Digester).StateDigest(), pristine)
	})
	bothLinks(t, func(t *testing.T, mkLink func(*runtime) link) {
		cl, down, pristine := deploy(t)
		rt, err := newRuntime(cl, recoverLate(cl), Config{}, nil, mkLink)
		if err != nil {
			t.Fatal(err)
		}
		rt.start()
		t.Cleanup(rt.stop)
		rt.crashNode(down)
		if _, _, ok := rt.invokeAsync(cl.Writers[0], write).wait(context.Background(), rt.cfg.OpTimeout); !ok {
			t.Fatal("write did not complete")
		}
		rt.recoverNode(down)
		ns := rt.node(down)
		ns.own.Lock()
		got := ns.node.(ioa.Digester).StateDigest()
		ns.own.Unlock()
		judge(t, rt.faultStats().TransportDropped, got, pristine)
	})
}

// firstElementLink is the chan link noting the first pooled message (a
// casgc pre-write, carrying a coded element) sent to one server.
type firstElementLink struct {
	*chanLink
	to    ioa.NodeID
	mu    sync.Mutex
	first ioa.Pooled
}

func (l *firstElementLink) send(from, to *nodeState, msg ioa.Message, inLoop bool) {
	if p, ok := msg.Body.(ioa.Pooled); ok && to.id == l.to {
		l.mu.Lock()
		if l.first == nil {
			l.first = p
		}
		l.mu.Unlock()
	}
	l.chanLink.send(from, to, msg, inLoop)
}

// recycled reports whether p's buffer went back to the pool since p was
// handed out: a stale holder panics at Retain.
func recycled(p ioa.Pooled) (yes bool) {
	defer func() {
		r := recover()
		yes = r != nil && strings.Contains(fmt.Sprint(r), "recycled")
	}()
	p.Retain()
	p.Release()
	return false
}

// TestReplacedImageReleasesElements runs casgc at δ = 0 with recovering
// servers, so each of a server's sends replaces its image: once later
// writes have collected the first write's element on every server, and
// images taken since have replaced the ones that held it, its buffer goes
// back to the pool. Chan link only: on tcp the pre-write's frame holds a
// copy, and the message lets go of its element as it is sent.
func TestReplacedImageReleasesElements(t *testing.T) {
	cl, err := cas.Deploy(cas.Options{Servers: 5, F: 1, GCDepth: 0, Writers: 1, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var l *firstElementLink
	rt, err := newRuntime(cl, recoverLate(cl), Config{}, nil, func(rt *runtime) link {
		l = &firstElementLink{chanLink: &chanLink{rt: rt}, to: cl.Servers[0]}
		return l
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.start()
	t.Cleanup(rt.stop)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		inv := ioa.Invocation{Kind: ioa.OpWrite, Value: register.MakeValue(1024, uint64(i))}
		if _, _, ok := rt.invokeAsync(cl.Writers[0], inv).wait(ctx, rt.cfg.OpTimeout); !ok {
			t.Fatalf("write %d did not complete", i)
		}
	}
	l.mu.Lock()
	first := l.first
	l.mu.Unlock()
	if first == nil {
		t.Fatal("no coded element was sent to the first server")
	}
	eventually(t, "the first write's element to return to the pool", func() bool { return recycled(first) })
}
