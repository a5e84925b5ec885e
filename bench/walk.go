package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/erasure"
	"repro/internal/ioa"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// walkSpec describes the layer walk of one live or net workload: the
// workload's operation mix driven by hand, on one goroutine, through the
// public functions of every layer an operation crosses.
type walkSpec struct {
	alg              string // "abd-mwmr" or "casgc"
	net              bool   // messages cross wire + transport
	valueBytes       int
	writers, readers int
	ops              int
	readShare        float64
	alternate        bool // strict write/read alternation instead of draws
}

// Layer names of the walk. The protocol layers are named after the algorithm
// package ("abd" or "cas").
const (
	layerOp      = "bench.walk" // an operation's root span: its self time is the harness's own bookkeeping
	layerEncode  = "wire.encode"
	layerDecode  = "wire.decode"
	layerHop     = "transport.hop"
	layerObserve = "consistency.observe"
	layerErasure = "erasure"
	layerSimRun  = "ioa.run"
	layerSimChk  = "consistency.offline_check"
	layerDeploy  = "store.deploy"
)

// walked is what a layer walk saw.
type walked struct {
	rec                   *recorder
	ops, writes, reads    int
	msgsWrite, msgsRead   int
	wireBytes, frames     int
	encodeNs, decodeNs    int64  // erasure time replayed for writes and for reads
	proto                 string // "abd" or "cas", the algorithm package
	clientLayer, srvLayer string
	messages              []ioa.Send // a sample of the real message mix, for the wire micro-measurement
}

// hopPair is two transport endpoints on loopback: a frame handed to one is
// timed until the other's handler has it.
type hopPair struct {
	a, b     *transport.Endpoint
	atA, atB chan []byte
}

func newHopPair() (*hopPair, error) {
	a, err := transport.Listen("127.0.0.1:0", transport.Config{})
	if err != nil {
		return nil, err
	}
	b, err := transport.Listen("127.0.0.1:0", transport.Config{})
	if err != nil {
		a.Close()
		return nil, err
	}
	// One frame is in flight at a time, so a buffer of one never blocks a
	// reader goroutine.
	h := &hopPair{a: a, b: b, atA: make(chan []byte, 1), atB: make(chan []byte, 1)}
	a.Serve(func(frame []byte) { h.atA <- frame })
	b.Serve(func(frame []byte) { h.atB <- frame })
	return h, nil
}

// send carries one frame across the loopback link in the given direction.
func (h *hopPair) send(toA bool, frame []byte) ([]byte, error) {
	from, to, arrived := h.a, h.b, h.atB
	if toA {
		from, to, arrived = h.b, h.a, h.atA
	}
	if err := from.Send(to.Addr(), frame); err != nil {
		return nil, err
	}
	select {
	case f := <-arrived:
		return f, nil
	case <-time.After(5 * time.Second):
		return nil, fmt.Errorf("frame of %d bytes did not arrive within 5 s", len(frame))
	}
}

func (h *hopPair) close() {
	h.a.Close()
	h.b.Close()
}

// appendFrame frames a message as the net runtime does: sender id, then the
// wire envelope.
func appendFrame(from ioa.NodeID, msg ioa.Message) ([]byte, error) {
	return wire.Append(binary.AppendUvarint(make([]byte, 0, 64), uint64(from)), msg)
}

func decodeFrame(frame []byte) (ioa.Message, error) {
	_, n := binary.Uvarint(frame)
	if n <= 0 {
		return nil, fmt.Errorf("frame without a sender id")
	}
	return wire.Decode(frame[n:])
}

// layerWalk drives spec.ops operations to completion and records a span
// around every call into a layer.
func layerWalk(spec walkSpec, seed int64) (*walked, error) {
	cl, _, err := store.DeployAlgorithmSized(spec.alg, servers, faulty, spec.writers, spec.readers)
	if err != nil {
		return nil, err
	}
	nodes := map[ioa.NodeID]ioa.Node{}
	for _, ids := range [][]ioa.NodeID{cl.Servers, cl.Writers, cl.Readers} {
		for _, id := range ids {
			n, err := cl.Automaton(id)
			if err != nil {
				return nil, err
			}
			nodes[id] = n
		}
	}
	proto := "abd"
	var code *erasure.Code
	if spec.alg == "casgc" {
		proto = "cas"
		if code, err = erasure.New(servers, servers-2*faulty); err != nil {
			return nil, err
		}
	}
	var hops *hopPair
	if spec.net {
		if hops, err = newHopPair(); err != nil {
			return nil, err
		}
		defer hops.close()
	}
	wk := &walked{rec: newRecorder(), proto: proto, clientLayer: proto + ".client_step", srvLayer: proto + ".server_deliver"}
	checker := consistency.NewOnlineChecker(nil)
	rng := rand.New(rand.NewSource(seed))
	source := newValueSource(spec.valueBytes, seed, 0xfe)
	var lastWritten []byte
	clock := 0
	for i := 0; i < spec.ops; i++ {
		write := rng.Float64() >= spec.readShare
		if spec.alternate {
			write = i%2 == 0
		}
		client, inv := cl.Readers[i%len(cl.Readers)], ioa.Invocation{Kind: ioa.OpRead}
		if write {
			client, inv = cl.Writers[i%len(cl.Writers)], ioa.Invocation{Kind: ioa.OpWrite, Value: source.next()}
		}
		out, root, err := wk.runOp(i+1, nodes, hops, client, inv)
		if err != nil {
			return nil, fmt.Errorf("layer walk op %d: %w", i, err)
		}
		if !write && string(out) != string(lastWritten) {
			return nil, fmt.Errorf("layer walk op %d: a sequential read did not return the last written value", i)
		}
		if write {
			lastWritten = inv.Value
		}
		wk.afterOp(root, code, checker, inv, out, lastWritten, &clock)
	}
	if err := checker.Result(); err != nil {
		return nil, fmt.Errorf("layer walk history: %w", err)
	}
	return wk, nil
}

// runOp carries one operation through client step, wire, transport and
// server delivery until the client responds and no message is left; it
// returns the index of the operation's root span, still open. Messages
// are delivered first in, first out; Phase counts the operation's quorum
// round trips and OffPath marks deliveries the response did not wait for.
func (wk *walked) runOp(op int, nodes map[ioa.NodeID]ioa.Node, hops *hopPair, client ioa.NodeID, inv ioa.Invocation) (out []byte, root int, err error) {
	rec := wk.rec
	root = rec.begin(span{Op: op, Layer: layerOp, Node: int(client)})
	rootID := rec.spans[root].ID
	call := func(layer string, node ioa.NodeID, phase int, off bool, f func()) {
		i := rec.begin(span{Parent: rootID, Op: op, Layer: layer, Node: int(node), Phase: phase, OffPath: off})
		f()
		rec.end(i)
	}
	type item struct {
		from, to ioa.NodeID
		msg      ioa.Message
		phase    int
	}
	var queue []item
	enqueue := func(from ioa.NodeID, sends []ioa.Send, phase int) {
		for _, s := range sends {
			queue = append(queue, item{from, s.To, s.Msg, phase})
			if len(wk.messages) < 4096 {
				wk.messages = append(wk.messages, s)
			}
		}
	}
	c, ok := nodes[client].(ioa.Client)
	if !ok {
		return nil, 0, fmt.Errorf("node %d is not a client", client)
	}
	var eff ioa.Effects
	call(wk.clientLayer, client, 1, false, func() { eff = c.Invoke(inv) })
	enqueue(client, eff.Sends, 1)
	phase, msgs := 1, 0
	var resp *ioa.Response
	var failure error
	for len(queue) > 0 && failure == nil {
		it := queue[0]
		queue = queue[1:]
		toClient := it.to == client
		off := resp != nil || (toClient && it.phase < phase)
		server := it.to
		if toClient {
			server = it.from
		}
		msg := it.msg
		if hops != nil {
			var frame []byte
			call(layerEncode, it.from, it.phase, off, func() { frame, failure = appendFrame(it.from, msg) })
			wk.wireBytes += len(frame)
			wk.frames++
			if failure == nil {
				call(layerHop, server, it.phase, off, func() { frame, failure = hops.send(toClient, frame) })
			}
			if failure == nil {
				call(layerDecode, it.to, it.phase, off, func() { msg, failure = decodeFrame(frame) })
			}
			if failure != nil {
				break
			}
		}
		msgs++
		layer := wk.srvLayer
		if toClient {
			layer = wk.clientLayer
		}
		var e ioa.Effects
		call(layer, it.to, it.phase, off, func() { e = nodes[it.to].Deliver(it.from, msg) })
		if e.Response != nil {
			resp = e.Response
		}
		next := it.phase
		if toClient && len(e.Sends) > 0 {
			phase++
			next = phase
		}
		enqueue(it.to, e.Sends, next)
	}
	if failure != nil {
		return nil, 0, failure
	}
	if resp == nil {
		return nil, 0, fmt.Errorf("client %d ran out of messages without responding", client)
	}
	wk.ops++
	if inv.Kind == ioa.OpWrite {
		wk.writes++
		wk.msgsWrite += msgs
	} else {
		wk.reads++
		wk.msgsRead += msgs
	}
	return resp.Value, root, nil
}

// afterOp records what the runtime does around an operation and what cannot
// be seen inside a client step from outside: the checker's Observe, and the
// erasure coding a cas client performs inside its step, replayed here with
// the same code, value and shard choice so its time can be told apart from
// the rest of the step.
func (wk *walked) afterOp(root int, code *erasure.Code, checker *consistency.OnlineChecker, inv ioa.Invocation, out, lastWritten []byte, clock *int) {
	rec := wk.rec
	defer rec.end(root)
	rootID, op, client := rec.spans[root].ID, rec.spans[root].Op, rec.spans[root].Node
	if code != nil {
		if inv.Kind == ioa.OpWrite {
			i := rec.begin(span{Parent: rootID, Op: op, Layer: layerErasure, Node: client, Replay: true})
			for s := 0; s < code.N(); s++ {
				code.EncodeOne(inv.Value, s)
			}
			rec.end(i)
			wk.encodeNs += rec.spans[i].dur()
		} else if len(lastWritten) > 0 {
			// The client decodes from the first quorum of replies; in the
			// walk those are servers 1..q, so the data shards are all there.
			shards, _ := code.Encode(lastWritten)
			quorum := (code.N() + code.K() + 1) / 2
			i := rec.begin(span{Parent: rootID, Op: op, Layer: layerErasure, Node: client, Replay: true})
			code.Decode(shards[:quorum])
			rec.end(i)
			wk.decodeNs += rec.spans[i].dur()
		}
	}
	i := rec.begin(span{Parent: rootID, Op: op, Layer: layerObserve, Node: client})
	checker.Observe(ioa.Op{ID: op, Client: ioa.NodeID(client), Kind: inv.Kind, Input: inv.Value, Output: out, InvokeStep: *clock, RespondStep: *clock + 1})
	rec.end(i)
	*clock += 2
}

// layerBudget is one layer's row of the budget table.
type layerBudget struct {
	calls      int
	selfNs     int64
	criticalNs int64 // the part of selfNs on the operation's critical path
}

// budgetOf folds a walk's spans into per-layer totals. An operation's
// critical path is everything its client did before the response (the client
// is one goroutine) plus, per round trip, the slowest server's chain of hop,
// decode, deliver, encode and hop back: servers work in parallel.
func budgetOf(spans []span, clientLayer string) map[string]*layerBudget {
	self := selfTimes(spans)
	out := map[string]*layerBudget{}
	row := func(layer string) *layerBudget {
		if out[layer] == nil {
			out[layer] = &layerBudget{}
		}
		return out[layer]
	}
	clients := map[int]int{} // op -> client node
	for _, s := range spans {
		if s.Layer == layerOp {
			clients[s.Op] = s.Node
		}
	}
	type chainKey struct{ op, phase, node int }
	chains := map[chainKey]int64{}
	for _, s := range spans {
		b := row(s.Layer)
		b.calls++
		b.selfNs += self[s.ID]
		switch {
		case s.Layer == layerOp || s.OffPath || s.Replay:
		case s.Node == clients[s.Op]:
			b.criticalNs += self[s.ID]
		default:
			chains[chainKey{s.Op, s.Phase, s.Node}] += self[s.ID]
		}
	}
	type phaseKey struct{ op, phase int }
	slowest := map[phaseKey]chainKey{}
	for k, ns := range chains {
		p := phaseKey{k.op, k.phase}
		if cur, ok := slowest[p]; !ok || ns > chains[cur] || (ns == chains[cur] && k.node < cur.node) {
			slowest[p] = k
		}
	}
	for _, s := range spans {
		if s.Layer == layerOp || s.OffPath || s.Replay || s.Node == clients[s.Op] {
			continue
		}
		if slowest[phaseKey{s.Op, s.Phase}] == (chainKey{s.Op, s.Phase, s.Node}) {
			row(s.Layer).criticalNs += self[s.ID]
		}
	}
	// Erasure coding runs inside the client step: the replayed calls say how
	// much of the step it is, on and off the critical path alike.
	if e := out[layerErasure]; e != nil {
		e.criticalNs = e.selfNs
		c := row(clientLayer)
		c.selfNs -= e.selfNs
		c.criticalNs -= e.selfNs
	}
	return out
}

// simWalk is the layer walk of the simulator workload: every shard of one
// RunMulti segment, run by hand through the layers below the store — deploy,
// the ioa kernel driving the workload, the offline checker — on one
// goroutine. It returns the kernel's step count with the spans.
func simWalk(m workload.MultiSpec, algs []string) (rec *recorder, ops, steps int, err error) {
	loads, err := m.Partition(len(simFaults))
	if err != nil {
		return nil, 0, 0, err
	}
	rec = newRecorder()
	for _, load := range loads {
		root := rec.begin(span{Op: load.Shard + 1, Layer: layerOp})
		rootID := rec.spans[root].ID
		var cl *cluster.Cluster
		var cond string
		i := rec.begin(span{Parent: rootID, Op: load.Shard + 1, Layer: layerDeploy})
		cl, cond, err = store.DeployShard(algs[load.Shard%len(algs)], servers, faulty, m.TargetNu, 0, 0)
		rec.end(i)
		if err != nil {
			return nil, 0, 0, err
		}
		spec := load.Spec(m)
		if spec.FaultPlan, err = m.ShardFaultPlan(load.Shard, servers, faulty); err != nil {
			return nil, 0, 0, err
		}
		i = rec.begin(span{Parent: rootID, Op: load.Shard + 1, Layer: layerSimRun})
		res, err := workload.Run(cl, spec)
		rec.end(i)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("shard %d: %w", load.Shard, err)
		}
		i = rec.begin(span{Parent: rootID, Op: load.Shard + 1, Layer: layerSimChk})
		err = res.CheckConsistency(cond)
		rec.end(i)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("shard %d: %w", load.Shard, err)
		}
		rec.end(root)
		ops += load.Writes + load.Reads
		steps += cl.Sys.Steps()
	}
	return rec, ops, steps, nil
}

// mallocs counts heap allocations made by f.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
