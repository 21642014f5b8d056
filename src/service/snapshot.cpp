#include "service/snapshot.hpp"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>

#include "service/mmap_file.hpp"
#include "tree/bfs_tree.hpp"
#include "util/failpoint.hpp"
#include "util/fnv.hpp"

#include <fcntl.h>
#include <unistd.h>

namespace msrp::service {
namespace {

// The v2 read path aliases file bytes as u32/u64 arrays in place.
static_assert(std::endian::native == std::endian::little,
              "snapshot v2 serves little-endian fixed-width sections in place");
static_assert(sizeof(Dist) == 4 && sizeof(Vertex) == 4 && sizeof(EdgeId) == 4,
              "snapshot v2 row layout assumes 4-byte cells and ids");

constexpr char kMagic[8] = {'M', 'S', 'R', 'P', 'S', 'N', 'A', 'P'};
constexpr std::uint32_t kV2HeaderBytes = 72;

constexpr std::uint64_t pad8(std::uint64_t v) { return (v + 7) & ~std::uint64_t{7}; }

std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void store_u32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void store_u64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, 8); }

}  // namespace

void Snapshot::SourceTable::adopt_owned() {
  dist = dist_store;
  parent = parent_store;
  parent_edge = parent_edge_store;
  row_offset = row_offset_store;
  cells = cells_store;
}

Snapshot Snapshot::capture(MsrpResult res) {
  Snapshot snap;
  snap.n_ = res.graph().num_vertices();
  snap.m_ = res.graph().num_edges();
  snap.sources_ = res.sources();
  snap.tables_.resize(snap.sources_.size());

  for (std::uint32_t si = 0; si < snap.sources_.size(); ++si) {
    const Vertex s = snap.sources_[si];
    const BfsTree& tree = res.tree(s);
    SourceTable& tab = snap.tables_[si];
    tab.root = s;
    tab.dist_store.resize(snap.n_);
    tab.parent_store.resize(snap.n_);
    tab.parent_edge_store.resize(snap.n_);
    for (Vertex v = 0; v < snap.n_; ++v) {
      tab.dist_store[v] = tree.dist(v);
      tab.parent_store[v] = tree.parent(v);
      tab.parent_edge_store[v] = tree.parent_edge(v);
    }
    tab.row_offset_store = std::move(res.row_offset_[si]);
    tab.cells_store = std::move(res.rows_[si]);
    tab.adopt_owned();
  }
  snap.build_derived();
  snap.content_digest_ = snap.compute_content_digest();
  return snap;
}

Snapshot Snapshot::slice(std::span<const std::uint32_t> source_indices) const {
  MSRP_REQUIRE(!source_indices.empty(), "snapshot slice: no sources");
  Snapshot out;
  out.n_ = n_;
  out.m_ = m_;
  out.sources_.reserve(source_indices.size());
  out.tables_.resize(source_indices.size());
  for (std::size_t i = 0; i < source_indices.size(); ++i) {
    const std::uint32_t si = source_indices[i];
    MSRP_REQUIRE(si < tables_.size(), "snapshot slice: source index out of range");
    const SourceTable& src = tables_[si];
    SourceTable& tab = out.tables_[i];
    out.sources_.push_back(sources_[si]);
    tab.root = src.root;
    tab.dist_store.assign(src.dist.begin(), src.dist.end());
    tab.parent_store.assign(src.parent.begin(), src.parent.end());
    tab.parent_edge_store.assign(src.parent_edge.begin(), src.parent_edge.end());
    tab.row_offset_store.assign(src.row_offset.begin(), src.row_offset.end());
    tab.cells_store.assign(src.cells.begin(), src.cells.end());
    tab.adopt_owned();
  }
  out.build_derived();
  out.content_digest_ = out.compute_content_digest();
  return out;
}

void Snapshot::build_derived() {
  MSRP_REQUIRE(!sources_.empty(), "snapshot: no sources");
  source_index_.assign(n_, -1);
  for (std::uint32_t si = 0; si < sources_.size(); ++si) {
    const Vertex s = sources_[si];
    MSRP_REQUIRE(s < n_, "snapshot: source out of range");
    MSRP_REQUIRE(source_index_[s] < 0, "snapshot: duplicate source");
    source_index_[s] = static_cast<std::int32_t>(si);
  }

  for (SourceTable& tab : tables_) {
    MSRP_REQUIRE(tab.root < n_ && tab.dist[tab.root] == 0,
                 "snapshot: root distance must be 0");
    MSRP_REQUIRE(tab.row_offset[0] == 0, "snapshot: row offsets must start at 0");

    // Derived map: tree edge id -> deeper endpoint. Children lists are kept
    // flat (counting sort by parent) — this runs on every cold v2 load, so
    // it must not pay n small allocations per source.
    tab.edge_child.assign(m_, kNoVertex);
    std::vector<std::uint32_t> child_off(std::size_t{n_} + 1, 0);
    std::size_t reachable = 0;
    for (Vertex v = 0; v < n_; ++v) {
      const Dist d = tab.dist[v];
      // Row accounting first: every avoiding_at() cell read is bounded by
      // these offsets, so they are load-bearing for memory safety.
      const std::uint64_t row_len =
          (d == kInfDist || v == tab.root) ? 0 : std::uint64_t{d};
      MSRP_REQUIRE(tab.row_offset[v + 1] >= tab.row_offset[v] &&
                       tab.row_offset[v + 1] - tab.row_offset[v] == row_len,
                   "snapshot: row length must equal the distance");
      if (d == kInfDist) {
        MSRP_REQUIRE(tab.parent[v] == kNoVertex && tab.parent_edge[v] == kNoEdge,
                     "snapshot: unreachable vertex with a parent");
        continue;
      }
      ++reachable;
      if (v == tab.root) {
        MSRP_REQUIRE(tab.parent[v] == kNoVertex && tab.parent_edge[v] == kNoEdge,
                     "snapshot: root with a parent");
        continue;
      }
      const Vertex p = tab.parent[v];
      const EdgeId pe = tab.parent_edge[v];
      MSRP_REQUIRE(p < n_ && pe < m_, "snapshot: parent out of range");
      MSRP_REQUIRE(tab.dist[p] != kInfDist && tab.dist[p] + 1 == d,
                   "snapshot: parent distance mismatch");
      MSRP_REQUIRE(tab.edge_child[pe] == kNoVertex, "snapshot: edge with two children");
      tab.edge_child[pe] = v;
      ++child_off[std::size_t{p} + 1];
    }
    MSRP_REQUIRE(tab.row_offset[n_] == tab.cells.size(),
                 "snapshot: row accounting mismatch");

    for (Vertex v = 0; v < n_; ++v) child_off[v + 1] += child_off[v];
    std::vector<Vertex> child_buf(child_off[n_]);
    {
      std::vector<std::uint32_t> fill(child_off.begin(), child_off.end() - 1);
      for (Vertex v = 0; v < n_; ++v) {
        if (v == tab.root || tab.dist[v] == kInfDist) continue;
        child_buf[fill[tab.parent[v]]++] = v;
      }
    }

    // DFS entry/exit stamps for the O(1) ancestor test (see tree/ancestry.hpp).
    tab.tin.assign(n_, kNoStamp);
    tab.tout.assign(n_, kNoStamp);
    std::uint32_t stamp = 0;
    std::size_t visited = 0;
    std::vector<std::uint32_t> next(child_off.begin(), child_off.end() - 1);
    std::vector<Vertex> stack{tab.root};
    tab.tin[tab.root] = stamp++;
    ++visited;
    while (!stack.empty()) {
      const Vertex v = stack.back();
      if (next[v] < child_off[std::size_t{v} + 1]) {
        const Vertex c = child_buf[next[v]++];
        tab.tin[c] = stamp++;
        ++visited;
        stack.push_back(c);
      } else {
        tab.tout[v] = stamp++;
        stack.pop_back();
      }
    }
    MSRP_REQUIRE(visited == reachable, "snapshot: tree is not connected to its root");
  }
}

std::uint64_t Snapshot::compute_content_digest() const {
  std::uint64_t digest = fnv::kOffset;
  digest = fnv::mix_u64(digest, n_);
  digest = fnv::mix_u64(digest, m_);
  digest = fnv::mix_u64(digest, sources_.size());
  for (const SourceTable& tab : tables_) {
    digest = fnv::mix_u64(digest, tab.root);
    for (Vertex v = 0; v < n_; ++v) {
      const Dist d = tab.dist[v];
      digest = fnv::mix_u64(digest, d);
      if (d == kInfDist || v == tab.root) continue;
      digest = fnv::mix_u64(digest, tab.parent[v]);
      digest = fnv::mix_u64(digest, tab.parent_edge[v]);
    }
    for (const Dist c : tab.cells) digest = fnv::mix_u64(digest, c);
  }
  return digest;
}

// ---------------------------------------------------------------- encode ---

std::size_t Snapshot::v2_encoded_size() const {
  std::uint64_t total_cells = 0;
  for (const SourceTable& tab : tables_) total_cells += tab.cells.size();
  const std::uint64_t meta_bytes =
      kV2HeaderBytes + pad8(std::uint64_t{4} * sources_.size()) +
      sources_.size() * (3 * pad8(std::uint64_t{4} * n_) + 8 * (std::uint64_t{n_} + 1));
  return static_cast<std::size_t>(meta_bytes + 4 * total_cells);
}

void Snapshot::encode_v2_into(std::span<std::uint8_t> out) const {
  MSRP_REQUIRE(out.size() == v2_encoded_size(), "snapshot: v2 buffer size mismatch");
  std::uint64_t total_cells = 0;
  for (const SourceTable& tab : tables_) total_cells += tab.cells.size();

  // Fixed-width sections at known offsets: zero the image (padding bytes
  // must be zero), then memcpy each section into place.
  std::uint8_t* p = out.data();
  std::memset(p, 0, out.size());
  std::memcpy(p, kMagic, sizeof(kMagic));
  store_u32(p + 8, 2);
  store_u32(p + 12, kV2HeaderBytes);
  store_u64(p + 16, n_);
  store_u64(p + 24, m_);
  store_u64(p + 32, sources_.size());
  store_u64(p + 40, total_cells);
  store_u64(p + 48, content_digest_);
  // Offsets 56 (meta checksum) and 64 (cells checksum) are patched below.

  std::size_t off = kV2HeaderBytes;
  std::memcpy(p + off, sources_.data(), sources_.size() * 4);
  off += pad8(std::uint64_t{4} * sources_.size());
  for (const SourceTable& tab : tables_) {
    std::memcpy(p + off, tab.dist.data(), std::size_t{n_} * 4);
    off += pad8(std::uint64_t{4} * n_);
    std::memcpy(p + off, tab.parent.data(), std::size_t{n_} * 4);
    off += pad8(std::uint64_t{4} * n_);
    std::memcpy(p + off, tab.parent_edge.data(), std::size_t{n_} * 4);
    off += pad8(std::uint64_t{4} * n_);
    std::memcpy(p + off, tab.row_offset.data(), (std::size_t{n_} + 1) * 8);
    off += (std::uint64_t{n_} + 1) * 8;
  }
  const std::size_t cells_off = off;
  for (const SourceTable& tab : tables_) {
    if (tab.cells.empty()) continue;
    std::memcpy(p + off, tab.cells.data(), tab.cells.size() * 4);
    off += tab.cells.size() * 4;
  }
  MSRP_CHECK(off == out.size(), "snapshot: v2 layout accounting mismatch");

  const std::uint64_t cells_ck =
      fnv::mix_bytes(fnv::kOffset, p + cells_off, out.size() - cells_off);
  store_u64(p + 64, cells_ck);
  std::uint64_t meta_ck = fnv::mix_bytes(fnv::kOffset, p + 16, 40);
  meta_ck = fnv::mix_bytes(meta_ck, p + 64, 8);
  meta_ck = fnv::mix_bytes(meta_ck, p + kV2HeaderBytes, cells_off - kV2HeaderBytes);
  store_u64(p + 56, meta_ck);

  encoded_size_ = out.size();
}

std::vector<std::uint8_t> Snapshot::encode() const {
  std::vector<std::uint8_t> out(v2_encoded_size());
  encode_v2_into(out);
  return out;
}

void Snapshot::write(std::ostream& os) const {
  const std::vector<std::uint8_t> buf = encode();
  os.write(reinterpret_cast<const char*>(buf.data()),
           static_cast<std::streamsize>(buf.size()));
}

// ------------------------------------------------------------------ load ---

Snapshot Snapshot::from_image(const std::uint8_t* data, std::size_t size,
                              std::shared_ptr<const void> anchor, const LoadOptions& opts,
                              bool mapped) {
  MSRP_REQUIRE(size >= sizeof(kMagic) + 4, "snapshot: file too small");
  MSRP_REQUIRE(std::memcmp(data, kMagic, sizeof(kMagic)) == 0, "snapshot: bad magic");
  MSRP_REQUIRE(load_u32(data + sizeof(kMagic)) == 2, "snapshot: unsupported version");
  MSRP_REQUIRE(size >= kV2HeaderBytes, "snapshot: file too small");
  MSRP_REQUIRE(load_u32(data + 12) == kV2HeaderBytes, "snapshot: bad v2 header size");
  const std::uint64_t n64 = load_u64(data + 16);
  const std::uint64_t m64 = load_u64(data + 24);
  const std::uint64_t sigma = load_u64(data + 32);
  const std::uint64_t total_cells = load_u64(data + 40);
  const std::uint64_t digest = load_u64(data + 48);
  const std::uint64_t meta_ck = load_u64(data + 56);
  const std::uint64_t cells_ck = load_u64(data + 64);

  MSRP_REQUIRE(n64 > 0 && n64 < kNoVertex, "snapshot: n out of range");
  MSRP_REQUIRE(m64 < kNoEdge, "snapshot: m out of range");
  MSRP_REQUIRE(sigma > 0 && sigma <= n64, "snapshot: bad source count");
  MSRP_REQUIRE(m64 <= n64 * (n64 - 1) / 2, "snapshot: more edges than a simple graph allows");

  // Overflow-safe layout check: every section must fit inside the file, so
  // divide by the per-table footprint rather than multiplying by sigma.
  const std::uint64_t src_bytes = pad8(4 * sigma);
  const std::uint64_t table_bytes = 3 * pad8(4 * n64) + 8 * (n64 + 1);
  MSRP_REQUIRE(size >= kV2HeaderBytes + src_bytes &&
                   (size - kV2HeaderBytes - src_bytes) / table_bytes >= sigma,
               "snapshot: body too small for claimed dimensions");
  const std::uint64_t cells_off = kV2HeaderBytes + src_bytes + sigma * table_bytes;
  MSRP_REQUIRE(total_cells <= (size - cells_off) / 4 &&
                   cells_off + 4 * total_cells == size,
               "snapshot: file size does not match claimed dimensions");

  std::uint64_t want_meta = fnv::mix_bytes(fnv::kOffset, data + 16, 40);
  want_meta = fnv::mix_bytes(want_meta, data + 64, 8);
  want_meta = fnv::mix_bytes(want_meta, data + kV2HeaderBytes, cells_off - kV2HeaderBytes);
  MSRP_REQUIRE(want_meta == meta_ck, "snapshot: metadata checksum mismatch");
  if (opts.verify_cells) {
    const std::uint64_t want_cells =
        fnv::mix_bytes(fnv::kOffset, data + cells_off, static_cast<std::size_t>(4 * total_cells));
    MSRP_REQUIRE(want_cells == cells_ck, "snapshot: cells checksum mismatch");
  }

  Snapshot snap;
  snap.n_ = static_cast<Vertex>(n64);
  snap.m_ = static_cast<EdgeId>(m64);
  const auto* src_ptr = reinterpret_cast<const Vertex*>(data + kV2HeaderBytes);
  snap.sources_.assign(src_ptr, src_ptr + sigma);
  snap.tables_.resize(sigma);

  std::uint64_t off = kV2HeaderBytes + src_bytes;
  std::uint64_t cell_base = 0;
  const auto* cells_ptr = reinterpret_cast<const Dist*>(data + cells_off);
  for (std::uint64_t si = 0; si < sigma; ++si) {
    SourceTable& tab = snap.tables_[si];
    tab.root = snap.sources_[si];
    tab.dist = {reinterpret_cast<const Dist*>(data + off), n64};
    off += pad8(4 * n64);
    tab.parent = {reinterpret_cast<const Vertex*>(data + off), n64};
    off += pad8(4 * n64);
    tab.parent_edge = {reinterpret_cast<const EdgeId*>(data + off), n64};
    off += pad8(4 * n64);
    tab.row_offset = {reinterpret_cast<const std::uint64_t*>(data + off), n64 + 1};
    off += 8 * (n64 + 1);
    const std::uint64_t declared = tab.row_offset[n64];
    MSRP_REQUIRE(declared <= total_cells - cell_base,
                 "snapshot: per-source cell counts exceed the cells section");
    tab.cells = {cells_ptr + cell_base, declared};
    cell_base += declared;
  }
  MSRP_REQUIRE(cell_base == total_cells, "snapshot: per-source cell counts mismatch");

  snap.build_derived();
  snap.content_digest_ = digest;
  snap.encoded_size_ = size;
  snap.mapped_ = mapped;
  snap.anchor_ = std::move(anchor);
  return snap;
}

Snapshot Snapshot::attach(const std::uint8_t* data, std::size_t size,
                          std::shared_ptr<const void> anchor, const LoadOptions& opts) {
  return from_image(data, size, std::move(anchor), opts, /*mapped=*/true);
}

Snapshot Snapshot::read(std::istream& is) {
  auto buf = std::make_shared<std::vector<std::uint8_t>>(
      std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>{});
  const std::uint8_t* data = buf->data();
  const std::size_t size = buf->size();
  return from_image(data, size, buf, LoadOptions{}, /*mapped=*/false);
}

void Snapshot::save(const std::string& path) const {
  // Crash-safe save: write a temp file IN THE TARGET DIRECTORY (rename is
  // only atomic within a filesystem), fsync it, then rename over `path`.
  // A crash at any point leaves either the old file or the complete new
  // one — never a truncated snapshot a later load would choke on.
  const std::vector<std::uint8_t> buf = encode();
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<unsigned long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw std::runtime_error("cannot open for writing: " + tmp);
  std::size_t off = 0;
  while (off < buf.size()) {
    const ::ssize_t n = ::write(fd, buf.data() + off, buf.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      std::remove(tmp.c_str());
      throw std::runtime_error("write failed: " + tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    std::remove(tmp.c_str());
    throw std::runtime_error("fsync failed: " + tmp);
  }
  ::close(fd);
  // crash action: the durable temp file exists but `path` was never
  // replaced — exactly the mid-save power cut the rename protects against.
  (void)MSRP_FAILPOINT("snapshot.save");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("rename failed: " + tmp + " -> " + path);
  }
}

Snapshot Snapshot::load(const std::string& path, const LoadOptions& opts) {
  if (opts.use_mmap) {
    auto map = std::make_shared<MmapFile>(MmapFile::open(path));
    const std::uint8_t* data = map->data();
    const std::size_t size = map->size();
    return from_image(data, size, map, opts, /*mapped=*/true);
  }
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open for reading: " + path);
  // file_size() fails for anything but a regular file. A directory opens
  // as a stream, and seeking its end yields -1 or a huge offset; either
  // would size the buffer below as a bad_alloc instead of an I/O error.
  std::error_code ec;
  const std::uintmax_t len = std::filesystem::file_size(path, ec);
  if (ec) throw std::runtime_error("cannot read: " + path);
  auto buf = std::make_shared<std::vector<std::uint8_t>>(static_cast<std::size_t>(len));
  f.read(reinterpret_cast<char*>(buf->data()), static_cast<std::streamsize>(len));
  if (!f) throw std::runtime_error("read failed: " + path);
  const std::uint8_t* data = buf->data();
  const std::size_t size = buf->size();
  return from_image(data, size, buf, opts, /*mapped=*/false);
}

std::size_t Snapshot::footprint_bytes() const {
  std::size_t bytes = sizeof(Snapshot) + sources_.capacity() * sizeof(Vertex) +
                      source_index_.capacity() * sizeof(std::int32_t);
  for (const SourceTable& tab : tables_) {
    bytes += tab.dist.size() * sizeof(Dist) + tab.parent.size() * sizeof(Vertex) +
             tab.parent_edge.size() * sizeof(EdgeId) +
             tab.row_offset.size() * sizeof(std::uint64_t) +
             tab.cells.size() * sizeof(Dist);
    bytes += tab.edge_child.size() * sizeof(Vertex) +
             (tab.tin.size() + tab.tout.size()) * sizeof(std::uint32_t);
  }
  return bytes;
}

// ------------------------------------------------------------ point reads ---

Dist Snapshot::shortest(Vertex s, Vertex t) const {
  const std::uint32_t si = source_index(s);
  MSRP_REQUIRE(t < n_, "target out of range");
  return tables_[si].dist[t];
}

std::span<const Dist> Snapshot::row(Vertex s, Vertex t) const {
  const std::uint32_t si = source_index(s);
  MSRP_REQUIRE(t < n_, "target out of range");
  const SourceTable& tab = tables_[si];
  return {tab.cells.data() + tab.row_offset[t], tab.cells.data() + tab.row_offset[t + 1]};
}

std::vector<EdgeId> Snapshot::canonical_path(Vertex s, Vertex t) const {
  const std::uint32_t si = source_index(s);
  MSRP_REQUIRE(t < n_, "target out of range");
  const SourceTable& tab = tables_[si];
  const Dist dt = tab.dist[t];
  if (dt == kInfDist || dt == 0) return {};
  std::vector<EdgeId> path(dt);
  Vertex v = t;
  for (Dist i = dt; i > 0; --i) {
    path[i - 1] = tab.parent_edge[v];
    v = tab.parent[v];
  }
  return path;
}

Dist Snapshot::avoiding(Vertex s, Vertex t, EdgeId e) const {
  const std::uint32_t si = source_index(s);
  MSRP_REQUIRE(t < n_, "target out of range");
  MSRP_REQUIRE(e < m_, "edge out of range");
  return avoiding_at(si, t, e);
}

}  // namespace msrp::service
