// Package colstore implements the paper's core contribution: the
// partitioned, doubly dictionary-encoded column layout of Section 2.3,
// its on-disk format, and the Section 5 machinery that keeps only the
// active fraction of it in RAM.
//
// # Layout
//
// Every column stores its values in two indirections:
//
//	value = globalDict[ chunkDict[ elements[row] ] ]
//
// The global-dictionary holds the sorted distinct values of the whole
// column; per chunk, a chunk-dictionary maps the global-ids occurring in
// that chunk to dense chunk-ids (assigned in ascending global-id order);
// the elements are the per-row chunk-ids. The layout gives cheap chunk
// skipping (probe the chunk-dictionaries), small footprints (elements come
// from a small dense range, see package enc), and a group-by inner loop
// that is a dense counts-array increment (Section 2.4).
//
// # Persistence
//
// Save writes a manifest.json plus one binary file per column: the
// global dictionary cut into frames of about 4 KiB, one record per chunk,
// then the column's layout record (index.go). It indexes every frame — its
// byte range, raw length, value count, CRC32C and first value (a string,
// or a number's order-preserving key) — and every
// chunk — its global-id span, byte range and CRC32C. That is enough to
// decide which chunks a restriction can match by their spans (the exact
// verdict then comes from the chunk-dictionaries of the chunks a span
// admits), and to load and verify any single chunk, a whole dictionary, or
// only the frames that hold some global-ids, without touching the rest of
// the file. The manifest keeps what is per store or per column, and where
// the layout record lies, so it does not grow with rows. A column file
// that an older generation-8 build wrote may end in a Bloom record of
// per-chunk filters after the layout: Scrub and the eager Open verify its
// CRC, and nothing decodes or loads it. With a codec, every frame
// and chunk record is encoded individually — compressed, or kept raw
// where the codec does not shrink it below 7/8 — and its file byte range
// recorded too, so the exact-read property holds under compression. Save
// writes format generation 9, the one generation every reader but the
// eager Open reads (docs/format.md); a store written by an earlier build
// is refused with ErrOldFormat by everything except the eager Open, which
// is what Upgrade rewrites it with (upgrade.go).
//
// # Lazy stores and the Reader
//
// Open loads a store eagerly; OpenLazy reads only the manifest and
// materializes data on demand through a memmgr.Manager. The residency
// unit is the (column, chunk) pair plus, per column, its layout and each
// frame of its global dictionary: the index is paged through the budget
// like the data, and so is every dictionary, one entry per frame, with a
// budget or without (paged.go; Section 5's sub-dictionaries).
// Reader is the decoding layer underneath: LoadColumnDict reads a
// dictionary's frames and LoadColumnChunk one chunk record, each at its
// exact byte range through a bounded handle cache; ReadChunkRuns serves
// contiguous cold chunks with one read per byte run; and a paged
// dictionary reads only the dictionary frames that hold the values it
// looks up. IOStats counts the physical work. A PinSet's
// cold loads read into one buffer the set owns and reuses, and decompress
// into one more for its dictionaries and one per chunk decode worker
// (PinChunks), all dropped at Release; the exported Reader methods
// allocate their own.
//
// # Virtual columns
//
// Expressions materialized at query time (AddVirtualColumn) are built in
// the store's own format. On a lazy store, AddVirtualColumnPinned
// additionally persists the column into the virtual/ sidecar next to the
// store — same framing, codec and layout record as the parent's columns
// — and registers its pieces with the memory manager, so materializations
// are budgeted, evictable, reloadable and span-prunable exactly like
// physical data, and survive a reopen. When persistence is impossible
// (resident stores, read-only directories) or disabled, the column falls
// back to the always-resident registry; UnevictableVirtualBytes reports
// those bytes.
//
// # Generation chains
//
// The virtual sidecar's manifest and the ingest path's segment list are
// each committed as a chain of numbered files, one implementation
// (GenChain, genfile.go): claim the next number exclusively, read the
// newest file that passes its own CRC.
//
// # The PinSet-first contract
//
// Query execution must access lazy columns through a PinSet: it pins
// every layout, dictionary frame and chunk the query touches from
// first touch until Release, carries load errors — a frame load that a
// lookup meets is kept for Err — and counts per-query cold loads. The
// convenience accessor Store.Column cannot report why a load failed (it
// returns nil; Store.ColumnErr surfaces the error) and leaves data
// unpinned — it exists for resident stores, tooling and tests. Engine
// code resolves columns during planning via PinSet and caches the
// pointers in the plan, so the scan hot path never takes the manager's
// mutex.
package colstore
