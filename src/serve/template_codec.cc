#include "src/serve/template_codec.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/html/tag_table.h"
#include "src/serve/template_store.h"

namespace thor::serve {

namespace {

constexpr char kMagic[8] = {'T', 'H', 'O', 'R', 'T', 'P', 'L', '1'};
constexpr uint32_t kVersion = 1;
/// magic + version + count + trailing checksum.
constexpr size_t kEnvelopeBytes = sizeof(kMagic) + 4 + 4 + 8;

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendDouble(std::string* out, double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  AppendU64(out, bits);
}

void AppendStr(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked little-endian reader; every failure is sticky.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  uint32_t ReadU32() {
    uint32_t v = 0;
    if (!Take(4)) return 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(
               static_cast<unsigned char>(data_[pos_ - 4 + i]))
           << (8 * i);
    }
    return v;
  }

  uint64_t ReadU64() {
    uint64_t v = 0;
    if (!Take(8)) return 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(
               static_cast<unsigned char>(data_[pos_ - 8 + i]))
           << (8 * i);
    }
    return v;
  }

  int32_t ReadI32() { return static_cast<int32_t>(ReadU32()); }

  double ReadDouble() {
    uint64_t bits = ReadU64();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  }

  std::string_view ReadStr() {
    uint32_t size = ReadU32();
    if (!ok_ || size > data_.size() - pos_) {
      ok_ = false;
      return {};
    }
    std::string_view s = data_.substr(pos_, size);
    pos_ += size;
    return s;
  }

 private:
  bool Take(size_t n) {
    if (!ok_ || n > data_.size() - pos_) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

void AppendEntries(std::string* out,
                   const std::vector<ir::VectorEntry>& entries) {
  AppendU32(out, static_cast<uint32_t>(entries.size()));
  for (const ir::VectorEntry& e : entries) {
    AppendStr(out, html::TagName(e.id));
    AppendDouble(out, e.weight);
  }
}

bool ReadEntries(Reader* in, ir::SparseVector* out) {
  uint32_t count = in->ReadU32();
  std::vector<ir::VectorEntry> entries;
  for (uint32_t i = 0; i < count && in->ok(); ++i) {
    std::string_view name = in->ReadStr();
    double weight = in->ReadDouble();
    if (!in->ok()) return false;
    entries.push_back({html::InternTag(name), weight});
  }
  if (!in->ok()) return false;
  *out = ir::SparseVector::FromPairs(std::move(entries));
  return true;
}

}  // namespace

std::string EncodeTemplates(const core::TemplateRegistry& registry) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendU32(&out, kVersion);
  AppendU32(&out, static_cast<uint32_t>(registry.templates().size()));
  for (const core::ExtractionTemplate& tmpl : registry.templates()) {
    AppendStr(&out, tmpl.path_symbols);
    AppendStr(&out, tmpl.prototype.path_symbols);
    AppendU32(&out, static_cast<uint32_t>(tmpl.prototype.fanout));
    AppendU32(&out, static_cast<uint32_t>(tmpl.prototype.depth));
    AppendU32(&out, static_cast<uint32_t>(tmpl.prototype.num_nodes));
    AppendU32(&out, static_cast<uint32_t>(tmpl.support));
    AppendDouble(&out, tmpl.max_distance);
    AppendDouble(&out, tmpl.min_stable_match);
    AppendEntries(&out, tmpl.stable_tags.entries());
    AppendEntries(&out, tmpl.known_tags.entries());
  }
  AppendU64(&out, Fnv1a64(out));
  return out;
}

Result<core::TemplateRegistry> DecodeTemplates(std::string_view blob) {
  if (blob.size() < kEnvelopeBytes) {
    return Status::ParseError("template blob truncated: " +
                              std::to_string(blob.size()) + " bytes");
  }
  if (std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("template blob: bad magic");
  }
  // Verify the trailer before trusting any length field: a flipped byte
  // anywhere (including inside a length) fails here, not in the parser.
  std::string_view body = blob.substr(0, blob.size() - 8);
  Reader trailer(blob.substr(blob.size() - 8));
  if (Fnv1a64(body) != trailer.ReadU64()) {
    return Status::ParseError("template blob: checksum mismatch");
  }
  Reader in(body.substr(sizeof(kMagic)));
  uint32_t version = in.ReadU32();
  if (!in.ok() || version != kVersion) {
    return Status::ParseError("template blob: unsupported version " +
                              std::to_string(version));
  }
  uint32_t count = in.ReadU32();
  std::vector<core::ExtractionTemplate> templates;
  for (uint32_t t = 0; t < count && in.ok(); ++t) {
    core::ExtractionTemplate tmpl;
    tmpl.path_symbols = std::string(in.ReadStr());
    tmpl.prototype.path_symbols = std::string(in.ReadStr());
    tmpl.prototype.fanout = in.ReadI32();
    tmpl.prototype.depth = in.ReadI32();
    tmpl.prototype.num_nodes = in.ReadI32();
    tmpl.support = in.ReadI32();
    tmpl.max_distance = in.ReadDouble();
    tmpl.min_stable_match = in.ReadDouble();
    if (!ReadEntries(&in, &tmpl.stable_tags) ||
        !ReadEntries(&in, &tmpl.known_tags)) {
      return Status::ParseError("template blob: truncated template record");
    }
    if (!in.ok()) break;
    templates.push_back(std::move(tmpl));
  }
  if (!in.ok() || templates.size() != count || !in.AtEnd()) {
    return Status::ParseError("template blob: malformed structure");
  }
  return core::TemplateRegistry::FromTemplates(std::move(templates));
}

}  // namespace thor::serve
