package main

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"

	"powerdrill"
)

// workload is one deployment shape the click sessions are run against.
type workload struct {
	name string
	// tree: the queries go through the serving tree, which rejects row scans.
	tree bool
	// appends: batches are appended on a schedule while the user clicks.
	appends bool
	setup   func(c *config, dir string, tr *tracer, parent *span) (*deployment, error)
}

var workloads = []workload{
	{name: "click-resident", setup: setupResident},
	{name: "click-cold", setup: setupCold},
	{name: "click-ingest", appends: true, setup: setupIngest},
	{name: "click-tree", tree: true, setup: setupTree},
}

// The tree is the paper's deployment in miniature: shards, each on two leaf
// servers with a result cache, two mixers over two shards each, one root.
const (
	treeShards     = 4
	treeReplicas   = 2
	treeMixers     = 2
	leafCacheBytes = 64 << 20
)

// deployment is a workload set up and ready to be clicked on.
type deployment struct {
	sessions *sessions
	// ask sends one query to the deployment's front door.
	ask func(q string, parent *span) (*answer, error)
	// stores are all the stores behind it: one, or the tree's leaves.
	stores []node
	// dir is the single store's directory ("" when it was never saved).
	dir string

	// The tree's servers, and the addresses a traced run calls level by level.
	servers    []*server
	leafAddrs  [][]string // [shard][replica]
	mixerAddrs []string
	root       *powerdrill.Cluster
	mixers     []*powerdrill.Mixer
}

// close stops the servers and releases the stores.
func (d *deployment) close() {
	for _, s := range d.servers {
		s.stop()
	}
	for _, n := range d.stores {
		_ = n.close() // a benchmark store that is being thrown away
	}
}

// generate makes the workload's table from the seed.
func (c *config) generate() *powerdrill.Table {
	return powerdrill.GenerateQueryLogs(c.rows, c.seed)
}

func single(tbl *powerdrill.Table, c *config, n node, dir string) *deployment {
	return &deployment{sessions: newSessions(tbl, c.seed, false), ask: n.query, stores: []node{n}, dir: dir}
}

// setupResident builds the table in memory: no disk, no budget, no cache.
func setupResident(c *config, _ string, tr *tracer, _ *span) (*deployment, error) {
	tbl := c.generate()
	n, err := c.build(tbl, engine{}, tr)
	if err != nil {
		return nil, err
	}
	return single(tbl, c, n, ""), nil
}

// save builds tbl, saves it under each of dirs in the current format with
// zippy, and returns the resident size of the built store.
func (c *config) save(tbl *powerdrill.Table, tr *tracer, parent *span, dirs ...string) (int64, error) {
	s, err := powerdrill.Build(tbl, c.options(engine{}))
	if err != nil {
		return 0, err
	}
	mem, err := s.Memory(s.Columns()...)
	if err != nil {
		return 0, err
	}
	for _, dir := range dirs {
		sp := tr.start("colstore.save", parent)
		err := s.Save(dir, "zippy")
		sp.end()
		if err != nil {
			return 0, err
		}
	}
	return mem.Total(), nil
}

// setupCold opens the saved store with a quarter of the memory it needs.
func setupCold(c *config, dir string, tr *tracer, parent *span) (*deployment, error) {
	tbl := c.generate()
	dir = filepath.Join(dir, "store")
	loaded, err := c.save(tbl, tr, parent, dir)
	if err != nil {
		return nil, err
	}
	n, err := c.open(dir, engine{budget: loaded / 4}, false, tr, parent)
	if err != nil {
		return nil, err
	}
	return single(tbl, c, n, dir), nil
}

// setupIngest opens the saved store without a budget, ready for appends.
func setupIngest(c *config, dir string, tr *tracer, parent *span) (*deployment, error) {
	tbl := c.generate()
	dir = filepath.Join(dir, "store")
	if _, err := c.save(tbl, tr, parent, dir); err != nil {
		return nil, err
	}
	n, err := c.open(dir, engine{}, true, tr, parent)
	if err != nil {
		return nil, err
	}
	return single(tbl, c, n, dir), nil
}

// setupTree shards the table, serves every shard from two leaf servers on
// loopback TCP, puts two mixers over two shards each and a root over those.
// Every leaf server has a copy of its shard in a directory of its own, as a
// machine of its own would. It also has to: two stores of one process that
// materialize virtual columns into one directory at the same moment (the first
// query is hedged to both replicas at once) share one "<file>.<pid>.tmp", can
// commit a torn manifest, and every later materialization then retries its
// claim forever.
func setupTree(c *config, dir string, tr *tracer, parent *span) (d *deployment, err error) {
	tbl := c.generate()
	d = &deployment{sessions: newSessions(tbl, c.seed, true)}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	for si, shard := range tbl.Shard(treeShards) {
		var dirs, addrs []string
		for r := 0; r < treeReplicas; r++ {
			dirs = append(dirs, filepath.Join(dir, fmt.Sprintf("shard%d-replica%d", si, r)))
		}
		if _, err = c.save(shard, tr, parent, dirs...); err != nil {
			return nil, err
		}
		for _, rdir := range dirs {
			leaf, err := c.open(rdir, engine{cacheBytes: leafCacheBytes}, false, tr, parent)
			if err != nil {
				return nil, err
			}
			d.stores = append(d.stores, leaf)
			srv, err := serveOn(leaf.serve)
			if err != nil {
				return nil, err
			}
			d.servers = append(d.servers, srv)
			addrs = append(addrs, srv.addr())
		}
		d.leafAddrs = append(d.leafAddrs, addrs)
	}
	per := treeShards / treeMixers
	var mixerSets [][]string
	for m := 0; m < treeMixers; m++ {
		mx := powerdrill.ConnectMixer(fmt.Sprintf("mixer%d", m), d.leafAddrs[m*per:(m+1)*per], powerdrill.ClusterOptions{})
		srv, err := serveOn(func(l net.Listener) error { return powerdrill.ServeMixer(l, mx) })
		if err != nil {
			return nil, err
		}
		d.servers = append(d.servers, srv)
		d.mixers = append(d.mixers, mx)
		d.mixerAddrs = append(d.mixerAddrs, srv.addr())
		mixerSets = append(mixerSets, []string{srv.addr()})
	}
	if d.root, err = powerdrill.ConnectCluster(mixerSets, powerdrill.ClusterOptions{}); err != nil {
		return nil, err
	}
	d.ask = func(q string, _ *span) (*answer, error) {
		res, err := d.root.Query(q)
		if err != nil {
			return nil, err
		}
		return &answer{rows: res.Rows, stats: res.Stats, coverage: res.Coverage}, nil
	}
	return d, nil
}

// server is a loopback listener that remembers the connections it accepted.
// The library's Serve functions return when the listener closes but leave
// accepted connections open, and neither Cluster nor Mixer can be closed; a
// tree that is set up several times in one process would keep every earlier
// tree's stores reachable. Closing the server side of each connection ends
// the serving goroutine and the peer's client with it.
type server struct {
	net.Listener
	done chan struct{}

	mu      sync.Mutex
	conns   []net.Conn
	stopped bool
}

// serveOn listens on a free loopback port and runs serve on it.
func serveOn(serve func(net.Listener) error) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{Listener: l, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = serve(s) // returns the listener's close error, which stop causes
	}()
	return s, nil
}

func (s *server) addr() string { return s.Listener.Addr().String() }

func (s *server) Accept() (net.Conn, error) {
	conn, err := s.Listener.Accept()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		conn.Close()
		return nil, net.ErrClosed
	}
	s.conns = append(s.conns, conn)
	return conn, nil
}

// stop closes the listener and every accepted connection, and waits for the
// serve function to return.
func (s *server) stop() {
	s.mu.Lock()
	s.stopped = true
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	s.Listener.Close()
	for _, c := range conns {
		c.Close()
	}
	<-s.done
}
