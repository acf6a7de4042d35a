package dict

import (
	"fmt"
	"math"
	"sort"

	"powerdrill/internal/sketch"
	"powerdrill/internal/value"
)

// Trie is the paper's optimized global dictionary for strings (Section 3,
// "Optimize Global-Dictionaries"): a prefix tree over 4-bit parts of the
// strings, hand-encoded into one flat byte array. Choosing nibbles instead
// of whole bytes as node labels keeps the fan-out at most 16, so a lookup
// from global-id to string can afford to iterate over all children of each
// node along the path ("at most 16 operations per node") without storing
// parent pointers or per-node string offsets.
//
// Chains of single-child nodes are path-compressed: each node stores a
// packed nibble prefix shared by everything below it, so unshared string
// tails cost about half a byte per character instead of a node per nibble.
//
// Both directions are supported:
//
//   - LookupString walks the nibbles of the probe, accumulating the ranks
//     of terminal nodes and whole subtrees that sort before the probe;
//   - StringAt descends by rank using per-edge subtree leaf counts,
//     reassembling the string from prefixes and edge labels.
//
// Node wire format (little-endian), laid out post-order so child offsets
// are known when a parent is written:
//
//	flags     byte     bit 0: node terminates a string
//	prefixLen uvarint  number of path-compressed nibbles
//	prefix    bytes    ⌈prefixLen/2⌉ bytes, high nibble first
//	edgeMask  uint16   bit b set: child for nibble b exists
//	per set bit, ascending:
//	  leafCount uvarint   number of strings in the child's subtree
//	  offset    uvarint   absolute byte offset of the child node
type Trie struct {
	buf  []byte
	root int
	n    int
}

// trieNode is the transient build-time representation.
type trieNode struct {
	terminal bool
	children [16]*trieNode
	nkids    int
	leaves   int
}

// NewTrie builds a trie dictionary from strictly sorted, distinct strings.
func NewTrie(sorted []string) *Trie { return must(TrieOf(sorted)) }

// TrieOf is NewTrie returning an error for out-of-order input.
func TrieOf(sorted []string) (*Trie, error) {
	if err := checkStrings(sorted); err != nil {
		return nil, err
	}
	root := &trieNode{}
	for _, s := range sorted {
		node := root
		node.leaves++
		for i := 0; i < 2*len(s); i++ {
			nb := nibbleAt(s, i)
			if node.children[nb] == nil {
				node.children[nb] = &trieNode{}
				node.nkids++
			}
			node = node.children[nb]
			node.leaves++
		}
		node.terminal = true
	}
	t := &Trie{n: len(sorted)}
	if len(sorted) > 0 {
		t.root = t.write(root, nil)
	}
	return t, nil
}

// nibbleAt returns the i-th 4-bit part of s (high nibble first).
func nibbleAt(s string, i int) byte {
	b := s[i/2]
	if i%2 == 0 {
		return b >> 4
	}
	return b & 0x0f
}

// write serializes node post-order with the given path-compressed prefix
// and returns its absolute offset. Single-child non-terminal chains are
// absorbed into the prefix before writing.
func (t *Trie) write(node *trieNode, prefix []byte) int {
	for !node.terminal && node.nkids == 1 {
		for nb, child := range node.children {
			if child != nil {
				prefix = append(prefix, byte(nb))
				node = child
				break
			}
		}
	}
	var offsets [16]int
	var mask uint16
	for nb, child := range node.children {
		if child != nil {
			offsets[nb] = t.write(child, nil)
			mask |= 1 << nb
		}
	}
	off := len(t.buf)
	var flags byte
	if node.terminal {
		flags |= 1
	}
	t.buf = append(t.buf, flags)
	t.buf = appendUvarint(t.buf, uint64(len(prefix)))
	for i := 0; i < len(prefix); i += 2 {
		b := prefix[i] << 4
		if i+1 < len(prefix) {
			b |= prefix[i+1]
		}
		t.buf = append(t.buf, b)
	}
	t.buf = append(t.buf, byte(mask), byte(mask>>8))
	for nb, child := range node.children {
		if child == nil {
			continue
		}
		t.buf = appendUvarint(t.buf, uint64(child.leaves))
		t.buf = appendUvarint(t.buf, uint64(offsets[nb]))
	}
	return off
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// readUvarint decodes at offset and returns the value and the new offset.
func (t *Trie) readUvarint(off int) (uint64, int) {
	var v uint64
	var shift uint
	for {
		b := t.buf[off]
		off++
		if b < 0x80 {
			return v | uint64(b)<<shift, off
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
}

// node decodes the header at off.
func (t *Trie) node(off int) (terminal bool, prefixLen, prefixOff int, mask uint16, edges int) {
	terminal = t.buf[off]&1 == 1
	pl, o := t.readUvarint(off + 1)
	prefixLen = int(pl)
	prefixOff = o
	o += (prefixLen + 1) / 2
	mask = uint16(t.buf[o]) | uint16(t.buf[o+1])<<8
	edges = o + 2
	return
}

// prefixNibble returns the i-th nibble of a node's packed prefix.
func (t *Trie) prefixNibble(prefixOff, i int) byte {
	b := t.buf[prefixOff+i/2]
	if i%2 == 0 {
		return b >> 4
	}
	return b & 0x0f
}

// edge scans the edge records of a node for nibble nb. It returns the
// child's leaf count and offset if present, and the total leaf count of
// children with smaller nibbles (needed for rank accumulation).
func (t *Trie) edge(edges int, mask uint16, nb byte) (leaves, childOff int, before int, ok bool) {
	off := edges
	for b := 0; b < 16; b++ {
		if mask&(1<<b) == 0 {
			continue
		}
		lv, next := t.readUvarint(off)
		co, next := t.readUvarint(next)
		if b == int(nb) {
			return int(lv), int(co), before, true
		}
		if b < int(nb) {
			before += int(lv)
		}
		off = next
	}
	return 0, 0, before, false
}

// Kind implements Dict.
func (t *Trie) Kind() value.Kind { return value.KindString }

// Len implements Dict.
func (t *Trie) Len() int { return t.n }

// walk descends the trie along s. It returns the number of stored strings
// strictly smaller than s, whether s itself is present, and — for FindGE —
// handles all divergence cases via the subtree leaf counts.
func (t *Trie) walk(s string) (rank uint32, found bool) {
	off := t.root
	subLeaves := t.n
	i := 0 // next nibble index in s
	total := 2 * len(s)
	var r int
	for {
		terminal, prefixLen, prefixOff, mask, edges := t.node(off)
		// Consume the path-compressed prefix.
		for p := 0; p < prefixLen; p++ {
			if i == total {
				return uint32(r), false // s is a proper prefix: s < subtree
			}
			pn, fn := nibbleAt(s, i), t.prefixNibble(prefixOff, p)
			if pn < fn {
				return uint32(r), false // subtree entirely > s
			}
			if pn > fn {
				return uint32(r + subLeaves), false // subtree entirely < s
			}
			i++
		}
		if i == total {
			if terminal {
				return uint32(r), true
			}
			return uint32(r), false
		}
		if terminal {
			r++ // the string ending here sorts before s
		}
		leaves, childOff, before, ok := t.edge(edges, mask, nibbleAt(s, i))
		r += before
		if !ok {
			return uint32(r), false
		}
		i++
		off = childOff
		subLeaves = leaves
	}
}

// LookupString returns the rank of s and whether it is present.
func (t *Trie) LookupString(s string) (uint32, bool) {
	if t.n == 0 {
		return 0, false
	}
	rank, found := t.walk(s)
	if !found {
		return 0, false
	}
	return rank, true
}

// StringAt implements StringDict with a string built from the trie's
// nibbles, which shares no memory with it. It panics if id is out of
// range, as slice indexing would.
func (t *Trie) StringAt(id uint32) string {
	if int(id) >= t.n {
		panic(fmt.Sprintf("dict: trie rank %d out of range [0,%d)", id, t.n))
	}
	var nibbles []byte
	off := t.root
	remaining := int(id)
	for {
		terminal, prefixLen, prefixOff, mask, edges := t.node(off)
		for p := 0; p < prefixLen; p++ {
			nibbles = append(nibbles, t.prefixNibble(prefixOff, p))
		}
		if terminal {
			if remaining == 0 {
				break
			}
			remaining--
		}
		// Descend into the child whose subtree covers the remaining rank;
		// iterating all (≤16) edges per node is the cost the nibble layout
		// deliberately accepts.
		found := false
		eo := edges
		for b := 0; b < 16 && !found; b++ {
			if mask&(1<<b) == 0 {
				continue
			}
			lv, next := t.readUvarint(eo)
			co, next := t.readUvarint(next)
			if remaining < int(lv) {
				nibbles = append(nibbles, byte(b))
				off = int(co)
				found = true
				break
			}
			remaining -= int(lv)
			eo = next
		}
		if !found {
			panic("dict: corrupt trie: rank not covered by edges")
		}
	}
	out := make([]byte, len(nibbles)/2)
	for i := range out {
		out[i] = nibbles[2*i]<<4 | nibbles[2*i+1]
	}
	return string(out)
}

// Value implements Dict.
func (t *Trie) Value(id uint32) value.Value { return value.String(t.StringAt(id)) }

// Lookup implements Dict.
func (t *Trie) Lookup(v value.Value) (uint32, bool) {
	if v.Kind() != value.KindString {
		return 0, false
	}
	return t.LookupString(v.Str())
}

// FindGE implements Dict.
func (t *Trie) FindGE(v value.Value) uint32 {
	if v.Kind() != value.KindString {
		return findGEByProbe(t, v)
	}
	if t.n == 0 {
		return 0
	}
	rank, _ := t.walk(v.Str())
	return rank
}

// Hash implements Dict.
func (t *Trie) Hash(id uint32) uint64 { return sketch.HashString(t.StringAt(id)) }

// MemoryBytes implements Dict: the flat byte array plus the struct header.
func (t *Trie) MemoryBytes() int64 { return int64(len(t.buf)) + 24 }

// Buf exposes the encoded byte array (for persistence). Callers must not
// modify it.
func (t *Trie) Buf() []byte { return t.buf }

// RebuildTrie reconstitutes a trie from its persisted parts.
func RebuildTrie(buf []byte, root, n int) (*Trie, error) {
	if n < 0 || root < 0 || (n > 0 && root+3 > len(buf)) {
		return nil, fmt.Errorf("dict: corrupt trie header (root=%d n=%d len=%d)", root, n, len(buf))
	}
	return &Trie{buf: buf, root: root, n: n}, nil
}

// Root returns the root node offset (for persistence).
func (t *Trie) Root() int { return t.root }

var _ StringDict = (*Trie)(nil)

// ByteTrie is an ablation variant using whole bytes (fan-out 256) as node
// labels instead of nibbles, without path compression. It answers the
// Section 3 design question "why 4-bit parts?": byte nodes make paths half
// as long but edge records wider; the dictionary benchmarks compare the two
// footprints. Edges are stored as (byte label, leafCount, offset) triples.
type ByteTrie struct {
	buf  []byte
	root int
	n    int
}

type byteTrieNode struct {
	terminal bool
	children map[byte]*byteTrieNode
	leaves   int
}

// NewByteTrie builds the byte-labelled variant from sorted distinct strings.
func NewByteTrie(sorted []string) *ByteTrie {
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] >= sorted[i] {
			panic("dict: strings not strictly sorted")
		}
	}
	root := &byteTrieNode{children: map[byte]*byteTrieNode{}}
	for _, s := range sorted {
		node := root
		node.leaves++
		for i := 0; i < len(s); i++ {
			c := node.children[s[i]]
			if c == nil {
				c = &byteTrieNode{children: map[byte]*byteTrieNode{}}
				node.children[s[i]] = c
			}
			node = c
			node.leaves++
		}
		node.terminal = true
	}
	t := &ByteTrie{n: len(sorted)}
	if len(sorted) > 0 {
		t.root = t.write(root)
	}
	return t
}

func (t *ByteTrie) write(node *byteTrieNode) int {
	labels := make([]int, 0, len(node.children))
	for b := range node.children {
		labels = append(labels, int(b))
	}
	sort.Ints(labels)
	offsets := make([]int, len(labels))
	for i, b := range labels {
		offsets[i] = t.write(node.children[byte(b)])
	}
	off := len(t.buf)
	var flags byte
	if node.terminal {
		flags |= 1
	}
	t.buf = append(t.buf, flags)
	t.buf = appendUvarint(t.buf, uint64(len(labels)))
	for i, b := range labels {
		t.buf = append(t.buf, byte(b))
		t.buf = appendUvarint(t.buf, uint64(node.children[byte(b)].leaves))
		t.buf = appendUvarint(t.buf, uint64(offsets[i]))
	}
	return off
}

// Len returns the number of strings.
func (t *ByteTrie) Len() int { return t.n }

// MemoryBytes returns the encoded size.
func (t *ByteTrie) MemoryBytes() int64 { return int64(len(t.buf)) + 24 }

// LookupString returns the rank of s and whether it is present.
func (t *ByteTrie) LookupString(s string) (uint32, bool) {
	if t.n == 0 {
		return 0, false
	}
	off := t.root
	rank := 0
	for i := 0; i < len(s); i++ {
		if t.buf[off]&1 == 1 {
			rank++
		}
		nEdges, eo := t.readUvarint(off + 1)
		found := false
		for e := 0; e < int(nEdges); e++ {
			label := t.buf[eo]
			lv, next := t.readUvarint(eo + 1)
			co, next := t.readUvarint(next)
			if label == s[i] {
				off = int(co)
				found = true
				break
			}
			if label < s[i] {
				rank += int(lv)
			}
			eo = next
		}
		if !found {
			return 0, false
		}
	}
	if t.buf[off]&1 != 1 {
		return 0, false
	}
	return uint32(rank), true
}

func (t *ByteTrie) readUvarint(off int) (uint64, int) {
	var v uint64
	var shift uint
	for {
		b := t.buf[off]
		off++
		if b < 0x80 {
			return v | uint64(b)<<shift, off
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
}

// floatBits converts a float to its IEEE-754 bit pattern.
func floatBits(f float64) uint64 { return math.Float64bits(f) }
