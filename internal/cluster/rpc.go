package cluster

// The RPC layer lets serving-tree nodes run as separate processes
// (cmd/pdserver) while the coordinator keeps the exact same execution
// tree. Partials cross the wire in the versioned exec.EncodePartial
// binary form — not as a gob mirror of the in-memory struct — so every
// level of the tree ships the same bytes and a mixed-version fleet fails
// loud on an incompatible layout instead of misdecoding.
//
// One service implements the whole node protocol:
//
//	PartialQuery(QueryArgs) → QueryReply   run the sub-query, ship the partial
//	Stat(StatArgs)          → StatReply    report NumRows without running one
//
// ServeNode registers it under BOTH the "Leaf" and "Mixer" names: a
// parent dials a child the same way whether it is a leaf process or a
// mixer process, which is what lets trees stack to any depth.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"sync"
	"time"

	"powerdrill/internal/exec"
)

// LeafService is the net/rpc server wrapper around a node: a leaf, a mixer
// or a shard, whatever implements Leaf. The RPC tests serve a LocalLeaf and
// straggle it through its Injector to force failover; nothing in cmd/
// reaches that Injector.
type LeafService struct {
	leaf Leaf
}

// QueryArgs is the RPC request.
type QueryArgs struct {
	SQL string
}

// QueryReply carries one partial in the versioned wire encoding
// (exec.EncodePartial).
type QueryReply struct {
	Partial []byte
}

// StatArgs requests a node's row count (no query runs).
type StatArgs struct{}

// StatReply answers it: how many rows the node's subtree spans.
type StatReply struct {
	NumRows int64
}

// NewLeafService wraps a node for serving.
func NewLeafService(leaf Leaf) *LeafService {
	return &LeafService{leaf: leaf}
}

// PartialQuery is the RPC method: run the node, ship the partial. The
// wire carries no cancel, so the node runs under context.Background(): a
// client that abandons the call (a hedge loser, an expired deadline)
// leaves the server to finish, which keeps its caches warm.
func (s *LeafService) PartialQuery(args *QueryArgs, reply *QueryReply) error {
	part, err := s.leaf.PartialQuery(context.Background(), args.SQL)
	if err != nil {
		return err
	}
	reply.Partial = exec.EncodePartial(part)
	return nil
}

// Stat is the RPC method behind RowCounter: it answers the node's row
// count so a coordinator can account coverage for this subtree before
// (or without) its first successful query.
func (s *LeafService) Stat(args *StatArgs, reply *StatReply) error {
	rc, ok := s.leaf.(RowCounter)
	if !ok {
		return fmt.Errorf("cluster: node %s does not report row counts", s.leaf.Name())
	}
	n, err := rc.NumRows(context.Background())
	if err != nil {
		return err
	}
	reply.NumRows = n
	return nil
}

// ServeNode registers node's RPC service under both the "Leaf" and
// "Mixer" names and accepts connections on l until the listener closes.
// It blocks; run it in a goroutine or a dedicated process.
func ServeNode(l net.Listener, node Leaf) error {
	srv := rpc.NewServer()
	svc := NewLeafService(node)
	if err := srv.RegisterName("Leaf", svc); err != nil {
		return err
	}
	if err := srv.RegisterName("Mixer", svc); err != nil {
		return err
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go srv.ServeConn(conn)
	}
}

// Serve wraps an engine in a LocalLeaf and serves it on l.
func Serve(l net.Listener, engine *exec.Engine) error {
	return ServeNode(l, NewLocalLeaf(l.Addr().String(), engine))
}

// RemoteLeaf is a Leaf backed by a net/rpc connection with a managed
// lifecycle: the connection is dialed lazily, torn down when the transport
// breaks (server restart, severed TCP), and redialed on the next call —
// with a short backoff window after a failed dial so a down server costs
// one connection attempt per window, not per sub-query. The far end may
// be a leaf or a mixer; the protocol is identical.
type RemoteLeaf struct {
	name string
	addr string
	clk  clock

	mu        sync.Mutex
	client    *rpc.Client
	closed    bool // Close was called: no call dials again
	dialFails int
	nextDial  time.Time // no redial before this after a failed dial
}

const (
	dialBackoffBase = 50 * time.Millisecond
	dialBackoffMax  = 2 * time.Second
)

// NewRemoteLeaf creates a leaf client for addr without connecting: the
// first call dials. A server that is down at assembly time is not fatal —
// the cluster serves partial answers until it comes up, at which point a
// half-open probe (or the next dispatch) redials and the leaf joins.
func NewRemoteLeaf(addr string) *RemoteLeaf {
	return &RemoteLeaf{name: addr, addr: addr, clk: wall{}}
}

// Dial connects to a leaf server eagerly, failing if it is unreachable.
// Prefer NewRemoteLeaf when assembling clusters that must tolerate
// not-yet-up servers.
func Dial(addr string) (*RemoteLeaf, error) {
	r := NewRemoteLeaf(addr)
	if _, err := r.ensureClient(); err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	return r, nil
}

// Name implements Leaf.
func (r *RemoteLeaf) Name() string { return r.name }

// ensureClient returns the live client, dialing if necessary. Failed dials
// open a backoff window during which calls fail immediately.
func (r *RemoteLeaf) ensureClient() (*rpc.Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.client != nil {
		return r.client, nil
	}
	if r.closed {
		return nil, fmt.Errorf("cluster: leaf %s: closed", r.addr)
	}
	now := r.clk.now()
	if now.Before(r.nextDial) {
		return nil, fmt.Errorf("cluster: leaf %s: down (redial backoff)", r.addr)
	}
	client, err := rpc.Dial("tcp", r.addr)
	if err != nil {
		d := dialBackoffBase
		for i := 0; i < r.dialFails && d < dialBackoffMax; i++ {
			d *= 2
		}
		if d > dialBackoffMax {
			d = dialBackoffMax
		}
		r.dialFails++
		r.nextDial = now.Add(d)
		return nil, fmt.Errorf("cluster: dial %s: %w", r.addr, err)
	}
	r.dialFails = 0
	r.nextDial = time.Time{}
	r.client = client
	return client, nil
}

// teardown discards client if it is still the current connection, so the
// next call redials. Compare-and-clear: a concurrent call that already
// replaced the connection is left alone.
func (r *RemoteLeaf) teardown(client *rpc.Client) {
	r.mu.Lock()
	if r.client == client {
		r.client = nil
	}
	r.mu.Unlock()
	client.Close()
}

// isConnError reports whether err means the transport is broken (as
// opposed to the server returning an application error).
func isConnError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, rpc.ErrShutdown) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var nerr net.Error
	return errors.As(err, &nerr)
}

// call runs one RPC with the managed-lifecycle rules: calls are idempotent
// reads, so a call that dies with a connection error is transparently
// retried once on a fresh connection; application errors pass through.
// When ctx expires mid-call the call is abandoned — the connection is NOT
// torn down, since concurrent queries may be multiplexed on it and the
// reply (discarded by net/rpc) may still arrive.
func (r *RemoteLeaf) call(ctx context.Context, method string, args, reply any) error {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		client, err := r.ensureClient()
		if err != nil {
			return err
		}
		call := client.Go(method, args, reply, make(chan *rpc.Call, 1))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-call.Done:
		}
		if call.Error == nil {
			return nil
		}
		lastErr = call.Error
		if !isConnError(call.Error) {
			return call.Error
		}
		r.teardown(client)
	}
	return lastErr
}

// PartialQuery implements Leaf.
func (r *RemoteLeaf) PartialQuery(ctx context.Context, sqlText string) (*exec.Partial, error) {
	var reply QueryReply
	if err := r.call(ctx, "Leaf.PartialQuery", &QueryArgs{SQL: sqlText}, &reply); err != nil {
		return nil, err
	}
	return exec.DecodePartial(reply.Partial)
}

// NumRows implements RowCounter via the Leaf.Stat RPC.
func (r *RemoteLeaf) NumRows(ctx context.Context) (int64, error) {
	var reply StatReply
	if err := r.call(ctx, "Leaf.Stat", &StatArgs{}, &reply); err != nil {
		return 0, err
	}
	return reply.NumRows, nil
}

// Close releases the connection (if one is up) and makes every later call
// fail without dialing; calls in flight on the connection return a
// shutdown error. Closing again is a no-op.
func (r *RemoteLeaf) Close() error {
	r.mu.Lock()
	client := r.client
	r.client = nil
	r.closed = true
	r.mu.Unlock()
	if client == nil {
		return nil
	}
	return client.Close()
}
