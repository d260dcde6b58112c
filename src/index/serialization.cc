#include "index/serialization.h"

#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "util/atomic_file.h"
#include "util/crc32.h"

namespace kdv {

namespace {

constexpr char kMagic[4] = {'K', 'D', 'V', 'T'};

// Hard ceiling on the header's num_points before any allocation happens; a
// corrupt header asking for more than this is rejected as implausible
// regardless of file size (2^40 points of 2-d doubles is 16 TiB).
constexpr uint64_t kMaxPlausiblePoints = uint64_t{1} << 40;

constexpr size_t kPointBytes = sizeof(double);
constexpr size_t kIndexBytes = sizeof(uint32_t);
// begin, end (uint32) + left, right (int32) per node.
constexpr size_t kNodeBytes = 2 * sizeof(uint32_t) + 2 * sizeof(int32_t);

std::string Hex(uint32_t v) {
  std::ostringstream oss;
  oss << "0x" << std::hex << v;
  return oss.str();
}

// Appends a POD value to a byte buffer (v2 sections are staged in memory so
// a section CRC covers exactly the bytes that hit the disk).
template <typename T>
void AppendPod(std::vector<char>* buf, const T& value) {
  const char* raw = reinterpret_cast<const char*>(&value);
  buf->insert(buf->end(), raw, raw + sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return in.good();
}

template <typename T>
T ParsePod(const char* data) {
  T value;
  std::memcpy(&value, data, sizeof(T));
  return value;
}

// Point-major on disk: the dim coordinates of point 0, then of point 1, ...
void AppendPointsSection(const KdTree& tree, std::vector<char>* buf) {
  for (size_t i = 0; i < tree.num_points(); ++i) {
    for (int j = 0; j < tree.dim(); ++j) AppendPod(buf, tree.coords(j)[i]);
  }
}

void AppendIndicesSection(const KdTree& tree, std::vector<char>* buf) {
  for (uint32_t idx : tree.original_indices()) AppendPod(buf, idx);
}

void AppendNodesSection(const KdTree& tree, std::vector<char>* buf) {
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const KdTree::Node node = tree.node(static_cast<int32_t>(i));
    AppendPod(buf, node.begin);
    AppendPod(buf, node.end);
    AppendPod(buf, node.left);
    AppendPod(buf, node.right);
  }
}

void SaveV1(const KdTree& tree, std::vector<char>* out) {
  AppendPod(out, static_cast<uint32_t>(tree.dim()));
  AppendPod(out, static_cast<uint64_t>(tree.num_points()));
  AppendPod(out, static_cast<uint64_t>(tree.num_nodes()));
  AppendPointsSection(tree, out);
  AppendIndicesSection(tree, out);
  AppendNodesSection(tree, out);
}

void SaveV2(const KdTree& tree, std::vector<char>* out) {
  std::vector<char> points, indices, nodes;
  AppendPointsSection(tree, &points);
  AppendIndicesSection(tree, &indices);
  AppendNodesSection(tree, &nodes);
  const uint64_t payload_bytes =
      points.size() + indices.size() + nodes.size() +
      3 * sizeof(uint32_t);  // three trailing section CRCs

  std::vector<char> header;
  AppendPod(&header, static_cast<uint32_t>(tree.dim()));
  AppendPod(&header, static_cast<uint64_t>(tree.num_points()));
  AppendPod(&header, static_cast<uint64_t>(tree.num_nodes()));
  AppendPod(&header, payload_bytes);
  const uint32_t header_crc = Crc32(header.data(), header.size());

  out->insert(out->end(), header.begin(), header.end());
  AppendPod(out, header_crc);
  for (const std::vector<char>* section : {&points, &indices, &nodes}) {
    out->insert(out->end(), section->begin(), section->end());
    AppendPod(out, Crc32(section->data(), section->size()));
  }
}

// Reads `bytes` bytes of section `name`, verifying the stored trailing CRC
// when `checked` is set. The size was validated against the real file size
// up front, so the allocation is bounded by what is actually on disk.
StatusOr<std::vector<char>> ReadSection(std::ifstream& in, const char* name,
                                        uint64_t bytes, bool checked) {
  std::vector<char> buf(bytes);
  in.read(buf.data(), static_cast<std::streamsize>(bytes));
  if (in.gcount() != static_cast<std::streamsize>(bytes)) {
    return DataLossError(std::string("unexpected end of file inside ") + name +
                         " section");
  }
  if (checked) {
    uint32_t stored = 0;
    if (!ReadPod(in, &stored)) {
      return DataLossError(std::string("unexpected end of file reading ") +
                           name + " section checksum");
    }
    const uint32_t computed = Crc32(buf.data(), buf.size());
    if (stored != computed) {
      return DataLossError(std::string(name) +
                           " section checksum mismatch (stored " +
                           Hex(stored) + ", computed " + Hex(computed) + ")");
    }
  }
  return buf;
}

struct Header {
  uint32_t version = 0;
  uint32_t dim = 0;
  uint64_t num_points = 0;
  uint64_t num_nodes = 0;
};

// Validates header bounds before any payload allocation and against the
// actual on-disk size, so a corrupt header can neither trigger a huge
// allocation nor mask a truncated payload.
Status CheckHeaderBounds(const Header& h, uint64_t actual_payload,
                         uint64_t declared_payload) {
  if (h.dim == 0 || h.dim > static_cast<uint32_t>(kMaxDim)) {
    return DataLossError("header dim " + std::to_string(h.dim) +
                         " outside [1, " + std::to_string(kMaxDim) + "]");
  }
  if (h.num_points == 0) return DataLossError("header declares zero points");
  if (h.num_points > kMaxPlausiblePoints) {
    return DataLossError("header declares an implausible point count " +
                         std::to_string(h.num_points));
  }
  if (h.num_nodes == 0) return DataLossError("header declares zero nodes");
  // A kd-tree over n points has < 2n nodes.
  if (h.num_nodes > 2 * h.num_points) {
    return DataLossError("header declares " + std::to_string(h.num_nodes) +
                         " nodes for " + std::to_string(h.num_points) +
                         " points (limit is 2x)");
  }
  const uint64_t expected =
      h.num_points * h.dim * kPointBytes + h.num_points * kIndexBytes +
      h.num_nodes * kNodeBytes +
      (h.version >= 2 ? 3 * sizeof(uint32_t) : uint64_t{0});
  if (declared_payload != expected) {
    return DataLossError("header payload length " +
                         std::to_string(declared_payload) +
                         " does not match declared counts (expected " +
                         std::to_string(expected) + ")");
  }
  if (actual_payload < expected) {
    return DataLossError("file truncated: payload has " +
                         std::to_string(actual_payload) + " bytes, header " +
                         "declares " + std::to_string(expected));
  }
  if (actual_payload > expected) {
    return DataLossError("file has " +
                         std::to_string(actual_payload - expected) +
                         " trailing bytes beyond the declared payload");
  }
  return OkStatus();
}

StatusOr<std::unique_ptr<KdTree>> ParseSections(
    const Header& h, std::vector<char> points_raw,
    std::vector<char> indices_raw, std::vector<char> nodes_raw) {
  // The points section is point-major; the tree's columns are dim-major.
  std::vector<double> columns(h.num_points * h.dim);
  const char* cursor = points_raw.data();
  for (uint64_t i = 0; i < h.num_points; ++i) {
    for (uint32_t j = 0; j < h.dim; ++j) {
      columns[j * h.num_points + i] = ParsePod<double>(cursor);
      cursor += sizeof(double);
    }
  }
  points_raw = std::vector<char>();  // freed before the records are built
  std::vector<uint32_t> original_indices(h.num_points);
  cursor = indices_raw.data();
  for (uint64_t i = 0; i < h.num_points; ++i) {
    original_indices[i] = ParsePod<uint32_t>(cursor);
    cursor += sizeof(uint32_t);
  }
  std::vector<KdTree::Topology> nodes(h.num_nodes);
  cursor = nodes_raw.data();
  for (uint64_t i = 0; i < h.num_nodes; ++i) {
    nodes[i].begin = ParsePod<uint32_t>(cursor);
    nodes[i].end = ParsePod<uint32_t>(cursor + 4);
    nodes[i].left = ParsePod<int32_t>(cursor + 8);
    nodes[i].right = ParsePod<int32_t>(cursor + 12);
    cursor += kNodeBytes;
  }
  return KdTree::FromSerialized(static_cast<int>(h.dim), std::move(columns),
                                std::move(original_indices),
                                std::move(nodes));
}

}  // namespace

Status SaveKdTree(const KdTree& tree, const std::string& path,
                  uint32_t version) {
  if (version != 1 && version != 2) {
    return InvalidArgumentError("unsupported kd-tree format version " +
                                std::to_string(version));
  }
  // Stage the complete image in memory, then publish it atomically: a crash
  // (or injected I/O fault) mid-save must never leave a half-written index
  // where a valid one used to be.
  std::vector<char> image;
  image.insert(image.end(), kMagic, kMagic + sizeof(kMagic));
  AppendPod(&image, version);
  if (version == 1) {
    SaveV1(tree, &image);
  } else {
    SaveV2(tree, &image);
  }
  return AtomicWriteFile(path, image.data(), image.size());
}

StatusOr<std::unique_ptr<KdTree>> LoadKdTree(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return NotFoundError("cannot open index file " + path);
  }
  in.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);

  char magic[4];
  in.read(magic, sizeof(magic));
  if (in.gcount() != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return DataLossError(path + " is not a KDV index file (bad magic)");
  }
  Header h;
  if (!ReadPod(in, &h.version)) {
    return DataLossError("unexpected end of file reading format version");
  }
  if (h.version != 1 && h.version != 2) {
    return UnimplementedError("kd-tree format version " +
                              std::to_string(h.version) +
                              " is newer than this library (max " +
                              std::to_string(kKdTreeFormatVersion) + ")");
  }

  uint64_t declared_payload = 0;
  uint64_t header_end = 0;
  if (h.version == 2) {
    // dim + num_points + num_nodes + payload_bytes, covered by header_crc.
    char fields[sizeof(uint32_t) + 3 * sizeof(uint64_t)];
    in.read(fields, sizeof(fields));
    if (in.gcount() != static_cast<std::streamsize>(sizeof(fields))) {
      return DataLossError("unexpected end of file inside header");
    }
    uint32_t stored_crc = 0;
    if (!ReadPod(in, &stored_crc)) {
      return DataLossError("unexpected end of file reading header checksum");
    }
    const uint32_t computed_crc = Crc32(fields, sizeof(fields));
    if (stored_crc != computed_crc) {
      return DataLossError("header checksum mismatch (stored " +
                           Hex(stored_crc) + ", computed " +
                           Hex(computed_crc) + ")");
    }
    h.dim = ParsePod<uint32_t>(fields);
    h.num_points = ParsePod<uint64_t>(fields + 4);
    h.num_nodes = ParsePod<uint64_t>(fields + 12);
    declared_payload = ParsePod<uint64_t>(fields + 20);
    header_end = sizeof(kMagic) + sizeof(uint32_t) + sizeof(fields) +
                 sizeof(uint32_t);
  } else {
    if (!ReadPod(in, &h.dim) || !ReadPod(in, &h.num_points) ||
        !ReadPod(in, &h.num_nodes)) {
      return DataLossError("unexpected end of file inside header");
    }
    header_end = sizeof(kMagic) + 2 * sizeof(uint32_t) + 2 * sizeof(uint64_t);
    // v1 has no payload-length field; derive it from the declared counts so
    // the same bounds check applies.
    if (h.dim >= 1 && h.dim <= static_cast<uint32_t>(kMaxDim) &&
        h.num_points >= 1 && h.num_points <= kMaxPlausiblePoints &&
        h.num_nodes <= 2 * h.num_points) {
      declared_payload = h.num_points * h.dim * kPointBytes +
                         h.num_points * kIndexBytes + h.num_nodes * kNodeBytes;
    }
  }
  KDV_RETURN_IF_ERROR(
      CheckHeaderBounds(h, file_size - header_end, declared_payload));

  const bool checked = h.version >= 2;
  KDV_ASSIGN_OR_RETURN(
      std::vector<char> points_raw,
      ReadSection(in, "points", h.num_points * h.dim * kPointBytes, checked));
  KDV_ASSIGN_OR_RETURN(
      std::vector<char> indices_raw,
      ReadSection(in, "indices", h.num_points * kIndexBytes, checked));
  KDV_ASSIGN_OR_RETURN(
      std::vector<char> nodes_raw,
      ReadSection(in, "nodes", h.num_nodes * kNodeBytes, checked));
  return ParseSections(h, std::move(points_raw), std::move(indices_raw),
                       std::move(nodes_raw));
}

}  // namespace kdv
