package cluster

// Topology assembly: how a Cluster's shard→replica table is built. The
// table is fixed once assembled. NewLocal and OpenShards simulate a fleet
// inside one process and label each replica with the server it "lives on"
// (replica r of shard i lands on server (i+r) mod Replicas — the paper's
// quasi-random spread). FromLeaves assembles a tree from pre-built
// children (RPC clients, mixers); each child is its own server.

import (
	"fmt"

	"powerdrill/internal/colstore"
	"powerdrill/internal/exec"
	"powerdrill/internal/memmgr"
	"powerdrill/internal/table"
)

// NewLocal builds an in-process cluster: the table is sharded, each shard
// imported into Replicas independent stores (a real deployment loads the
// same shard files on two machines; here each replica builds its own store
// so fault injection on one cannot corrupt the other). The cluster keeps
// only the stores: the shard tables are garbage once NewLocal returns.
func NewLocal(tbl *table.Table, opts Options) (*Cluster, error) {
	opts = opts.withDefaults()
	shards := tbl.Shard(opts.Shards)
	return assembleLocal(len(shards), opts, "", func(i int) (*colstore.Store, error) {
		return colstore.FromTable(shards[i], opts.Store)
	})
}

// OpenShards assembles an in-process cluster from persisted shard
// directories, opening every shard lazily: no column data is read until a
// query touches it, and all leaves share one memory manager — so the whole
// cluster's resident column bytes respect a single budget (mgr may be nil
// for lazy loading without a budget). Replicas of a shard open the same
// directory and therefore share resident columns, which is exactly what
// the paper's primary+replica scheme wants: the replica answers from the
// same bytes.
func OpenShards(dirs []string, opts Options, mgr *memmgr.Manager) (*Cluster, error) {
	opts.Shards = len(dirs)
	opts = opts.withDefaults()
	if mgr == nil {
		mgr = memmgr.New(0, "")
	}
	return assembleLocal(len(dirs), opts, "open ", func(i int) (*colstore.Store, error) {
		store, _, err := colstore.OpenLazy(dirs[i], mgr)
		return store, err
	})
}

// assembleLocal builds n shards of opts.Replicas in-process leaves each,
// opening every replica's store with open. verb prefixes the error.
func assembleLocal(n int, opts Options, verb string, open func(i int) (*colstore.Store, error)) (*Cluster, error) {
	c := &Cluster{}
	c.opts, c.clk = opts, wall{}
	for i := 0; i < n; i++ {
		s := &shardState{}
		for r := 0; r < opts.Replicas; r++ {
			store, err := open(i)
			if err != nil {
				return nil, fmt.Errorf("cluster: %sshard %d replica %d: %w", verb, i, r, err)
			}
			s.rows = int64(store.NumRows())
			leaf := NewLocalLeaf(fmt.Sprintf("shard%d-r%d", i, r), exec.New(store, opts.Engine))
			s.replicas = append(s.replicas, newLeafState(leaf, i, r, fmt.Sprintf("srv%d", (i+r)%opts.Replicas)))
			c.leaves = append(c.leaves, leaf)
		}
		c.shards = append(c.shards, s)
	}
	return c, nil
}

// FromLeaves assembles a cluster from pre-built children (RPC clients,
// mixers, custom Leafs); leafSets[i] holds the replicas of shard i.
// Children that are down at assembly simply stay unhealthy until they
// come back — see NewRemoteLeaf — so a partially-up fleet still serves
// (partial) answers. Each child counts as its own server.
func FromLeaves(leafSets [][]Leaf, opts Options) *Cluster {
	c := &Cluster{}
	c.setChildren(leafSets, opts)
	return c
}
