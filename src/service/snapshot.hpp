/// \file
/// Binary snapshot of a solved MSRP oracle.
///
/// The snapshot is the build-once/serve-many half of the service layer: a
/// versioned binary image decoded from memory with pointer arithmetic, so a
/// multi-gigabyte replacement table comes back in one gulp.
///
/// There is one on-disk format, version 2; the byte-exact layout, checksum
/// coverage, and validation rules are specified in docs/SNAPSHOT_FORMAT.md.
/// Fixed-width little-endian sections, 8-byte aligned, sit under a 72-byte
/// checksummed header. A load maps (or bulk-reads) the image, verifies the
/// metadata checksum and the tree/row-offset invariants in O(n + m) per
/// source, and serves straight out of the image — the dominant cells
/// payload is never decoded, copied, or (with LoadOptions::verify_cells
/// off) even touched. Any other version word is rejected.
///
/// The derived ancestry index (edge_child, DFS stamps) is recomputed from
/// the parent arrays on every load path, which is what makes a validated
/// snapshot memory-safe to query even if the cells are garbage: every
/// avoiding() read is bounded by the validated row-offset table. The
/// stored content digest is trusted under the metadata checksum; only
/// capture() and slice() compute it from the cells.
///
/// The snapshot stores the canonical trees as well as the rows, so a
/// loaded snapshot answers avoiding(s, t, e) for arbitrary edge ids in
/// O(1) with no Graph in hand. It is also where a solve lands: every
/// MsrpResult owns one (the solvers write its cells in place) and reads
/// through it, so a solved result, a captured snapshot and a loaded file
/// share one implementation of every cell read. The same bytes serve from
/// a file, an owned buffer (encode()/attach()), or a shared-memory segment
/// (the multi-process shard transport; see shard_router.hpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/assert.hpp"
#include "util/distance.hpp"

namespace msrp {
class MsrpResult;   // core/result.hpp
struct RootedTree;  // tree/ancestry.hpp
}  // namespace msrp

namespace msrp::service {

struct SnapshotLoadOptions {
  /// Serve the file straight out of a memory mapping instead of bulk-
  /// reading it into an owned buffer.
  bool use_mmap = false;
  /// Verify the cells checksum at load time. Off is the zero-copy
  /// fast path: corrupt cells then yield wrong answers, never unsafe
  /// reads (the row-offset table is always validated).
  bool verify_cells = true;
};

class Snapshot {
 public:
  using LoadOptions = SnapshotLoadOptions;

  Snapshot() = default;

  // The tables alias either owned storage or a mapped file; both survive a
  // move (vector moves keep their heap buffers, the anchor is shared). A
  // copy re-points the views of owned tables at its own vectors.
  Snapshot(Snapshot&&) noexcept = default;
  Snapshot& operator=(Snapshot&&) noexcept = default;
  Snapshot(const Snapshot& other);
  Snapshot& operator=(const Snapshot& other) { return *this = Snapshot(other); }

  /// Turns a solved result into a self-contained, query-ready oracle: takes
  /// the result's table and computes its content digest. A caller that
  /// moves its result in (QueryService::build) copies no cell and no tree
  /// array; an lvalue caller pays one copy of the result.
  static Snapshot capture(MsrpResult res);

  /// Copies the tables of the given source indices (in the given order)
  /// into a self-contained sub-oracle over the same graph. The slice
  /// answers exactly the queries whose source is in the subset; its content
  /// digest is recomputed over the reduced source set. This is how the
  /// shard router carves one snapshot into per-worker shared-memory images.
  Snapshot slice(std::span<const std::uint32_t> source_indices) const;

  /// Returns the raw v2 image — the same bytes write() streams to disk,
  /// for callers that place snapshots somewhere other than a file.
  std::vector<std::uint8_t> encode() const;

  /// Exact byte size of this snapshot's v2 image (what encode() would
  /// return), computable without encoding.
  std::size_t v2_encoded_size() const;

  /// Encodes the v2 image directly into `out`, which must be exactly
  /// v2_encoded_size() bytes — how the shard router writes each shard's
  /// image straight into its shared-memory segment with no intermediate
  /// heap buffer.
  void encode_v2_into(std::span<std::uint8_t> out) const;

  /// Serves a snapshot straight out of caller-provided bytes (a v2 image
  /// in shared memory, an embedded blob, ...). The tables alias `data`;
  /// `anchor` keeps the bytes alive for the snapshot's lifetime. Runs the
  /// same validation as load(); is_mapped() is true for the result.
  static Snapshot attach(const std::uint8_t* data, std::size_t size,
                         std::shared_ptr<const void> anchor, const LoadOptions& opts = {});

  /// Streams the encode() image (one bulk write).
  void write(std::ostream& os) const;

  /// Reads an image into an owned buffer and serves from it; throws
  /// std::invalid_argument on a bad magic/version, truncation, checksum
  /// mismatch, or inconsistent tables.
  static Snapshot read(std::istream& is);

  /// File wrappers; throw std::runtime_error on I/O failure and
  /// std::invalid_argument on a malformed image.
  void save(const std::string& path) const;
  static Snapshot load(const std::string& path, const LoadOptions& opts = {});

  Vertex num_vertices() const { return n_; }
  EdgeId num_edges() const { return m_; }
  const std::vector<Vertex>& sources() const { return sources_; }
  std::uint32_t num_sources() const { return static_cast<std::uint32_t>(sources_.size()); }

  bool is_source(Vertex s) const { return s < n_ && source_index_[s] >= 0; }

  /// Index of source vertex s; throws if s is not a source.
  std::uint32_t source_index(Vertex s) const {
    MSRP_REQUIRE(is_source(s), "not a source in the snapshot");
    return static_cast<std::uint32_t>(source_index_[s]);
  }

  /// d(s, t); kInfDist if t is unreachable from s.
  Dist shortest(Vertex s, Vertex t) const;

  /// Replacement row for (s, t): d(s, t, e_i) per canonical-path position i.
  std::span<const Dist> row(Vertex s, Vertex t) const;

  /// All rows of source index si as one flat array: row (si, t) occupies
  /// [row_offsets(si)[t], row_offsets(si)[t + 1]). Its size is the weight
  /// the shard planner balances on.
  std::span<const Dist> raw_rows(std::uint32_t si) const { return tables_[si].cells; }

  /// n+1 prefix sums into raw_rows(si), indexed by target vertex.
  std::span<const std::uint64_t> row_offsets(std::uint32_t si) const {
    return tables_[si].row_offset;
  }

  /// d(s, t, e) for an arbitrary edge id, O(1): the stored row value when e
  /// lies on the canonical s->t path, d(s, t) otherwise (deleting an
  /// off-path edge leaves the canonical path intact). kInfDist if t is
  /// unreachable.
  Dist avoiding(Vertex s, Vertex t, EdgeId e) const;

  /// Edge ids of the canonical s->t shortest path in path order: element i
  /// is the edge whose deeper endpoint sits at distance i+1 from s — the
  /// same indexing as row(s, t), so row(s, t)[i] == avoiding(s, t, path[i]).
  /// Empty when s == t or t is unreachable; throws if s is not a source or
  /// t is out of range. This is what the vitality and Vickrey workloads
  /// enumerate, and it needs no Graph: the trees stored in the snapshot
  /// carry the parent edges.
  std::vector<EdgeId> canonical_path(Vertex s, Vertex t) const;

  /// avoiding() with the source-index lookup and bounds checks hoisted out;
  /// the batched read path calls this once per query.
  Dist avoiding_at(std::uint32_t si, Vertex t, EdgeId e) const {
    const SourceTable& tab = tables_[si];
    const Dist dt = tab.dist[t];
    if (dt == kInfDist) return kInfDist;
    const Vertex child = tab.edge_child[e];
    if (child == kNoVertex || !is_ancestor(tab, child, t)) return dt;
    return tab.cells[tab.row_offset[t] + tab.dist[child] - 1];
  }

  /// Digest of the semantic content (dimensions, sources, trees, cells);
  /// identical for a captured snapshot and its round-tripped copy. Used as
  /// the cache key for snapshots loaded from disk. A load trusts the
  /// digest stored in the (checksummed) header instead of re-reading the
  /// cells.
  std::uint64_t content_digest() const { return content_digest_; }

  /// Size of the encoded form in bytes (0 until written or read once).
  std::size_t encoded_size() const { return encoded_size_; }

  /// Approximate resident size: the primary table sections (cells, trees,
  /// row offsets — owned or mapped alike) plus the derived ancestry index.
  /// The registry's byte budget is summed from this.
  std::size_t footprint_bytes() const;

  /// True when the tables alias a live memory mapping of the source file.
  bool is_mapped() const { return mapped_; }

 private:
  struct SourceTable {
    Vertex root = kNoVertex;
    // Views over the primary arrays; alias the owned *_store vectors for
    // solved, captured or sliced snapshots, or the image for loaded ones.
    std::span<const Dist> dist;                // n; kInfDist = unreachable
    std::span<const Vertex> parent;            // n; kNoVertex for root/unreachable
    std::span<const EdgeId> parent_edge;       // n; kNoEdge for root/unreachable
    std::span<const std::uint64_t> row_offset; // n+1 prefix sums into cells
    std::span<const Dist> cells;               // flat rows
    // Owned storage (empty when the views alias a file image).
    std::vector<Dist> dist_store;
    std::vector<Vertex> parent_store;
    std::vector<EdgeId> parent_edge_store;
    std::vector<std::uint64_t> row_offset_store;
    std::vector<Dist> cells_store;
    // Derived ancestry index; always recomputed on load, never stored.
    std::vector<Vertex> edge_child;            // m; deeper endpoint of tree edge e
    std::vector<std::uint32_t> tin, tout;      // DFS stamps

    /// Points the views at the owned storage (after the vectors are final).
    void adopt_owned();
  };

  friend class msrp::MsrpResult;  // solves into a table over its own trees

  /// An owned table over the canonical trees (trees[si] is rooted at
  /// sources[si]) with every cell kInfDist, validated like a load. The
  /// solver fills the cells through mutable_row(); capture() computes the
  /// digest once they are final.
  Snapshot(const Graph& g, std::vector<Vertex> sources, const std::vector<RootedTree>& trees);

  /// Writable row (si, t) of an owned table.
  std::span<Dist> mutable_row(std::uint32_t si, Vertex t) {
    SourceTable& tab = tables_[si];
    return {tab.cells_store.data() + tab.row_offset[t],
            tab.cells_store.data() + tab.row_offset[t + 1]};
  }

  static constexpr std::uint32_t kNoStamp = static_cast<std::uint32_t>(-1);

  static bool is_ancestor(const SourceTable& tab, Vertex a, Vertex v) {
    if (tab.tin[a] == kNoStamp || tab.tin[v] == kNoStamp) return false;
    return tab.tin[a] <= tab.tin[v] && tab.tout[v] <= tab.tout[a];
  }

  /// Builds source_index_ and, per table, the derived ancestry index while
  /// validating every invariant avoiding_at() relies on for memory safety
  /// (parent/edge ranges, distance consistency, connectivity, row-offset
  /// accounting). O(sigma * (n + m)); never touches the cells.
  void build_derived();

  /// Folds the full semantic content — cells included — into a digest.
  std::uint64_t compute_content_digest() const;

  /// Validates a v2 image and builds a snapshot whose tables alias `data`;
  /// `anchor` keeps the bytes alive (a mapping or an owned buffer).
  static Snapshot from_image(const std::uint8_t* data, std::size_t size,
                             std::shared_ptr<const void> anchor, const LoadOptions& opts,
                             bool mapped);

  Vertex n_ = 0;
  EdgeId m_ = 0;
  std::vector<Vertex> sources_;
  std::vector<std::int32_t> source_index_;  // n; -1 = not a source
  std::vector<SourceTable> tables_;
  std::uint64_t content_digest_ = 0;
  mutable std::size_t encoded_size_ = 0;  // set by encode/load
  bool mapped_ = false;
  std::shared_ptr<const void> anchor_;  // mapping or buffer the views alias
};

}  // namespace msrp::service
