#include "src/serve/template_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/serve/template_codec.h"
#include "src/util/failpoint.h"
#include "src/util/json.h"
#include "src/util/json_reader.h"

namespace thor::serve {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestName = "MANIFEST.json";

std::string ChecksumHex(uint64_t checksum) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(checksum));
  return buf;
}

Result<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Internal("cannot read " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Writes `contents` to `path + ".tmp"`, fsyncs it, then renames over
/// `path` — the atomic-commit primitive every store write goes through.
/// The `rename_failpoint` sits between the two filesystem steps: a crash
/// there leaves the tmp file without the commit rename, the exact torn
/// state the old-or-new contract must survive. The tmp-file fsync makes
/// the rename also safe against power loss (a rename can otherwise be
/// reordered ahead of the data blocks it points at); the directory fsync
/// after the rename is best-effort.
Status AtomicWrite(const fs::path& path, const std::string& contents,
                   const char* rename_failpoint) {
  fs::path tmp = path;
  tmp += ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot write " + tmp.string());
    }
    out << contents;
    if (!out.flush()) {
      return Status::Internal("short write to " + tmp.string());
    }
  }
  int fd = ::open(tmp.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    return Status::Internal("cannot fsync " + tmp.string());
  }
  ::close(fd);
  THOR_RETURN_IF_ERROR(THOR_FAILPOINT(rename_failpoint));
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    return Status::Internal("cannot commit " + path.string() + ": " +
                            ec.message());
  }
  int dir_fd = ::open(path.parent_path().c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);  // best-effort: makes the rename itself durable
    ::close(dir_fd);
  }
  return Status::OK();
}

/// The one name a committed generation file can have. The manifest's
/// `file` field must equal it, so no manifest can point a read outside
/// the store directory.
std::string GenerationFileName(const std::string& site, int64_t generation) {
  return site + ".g" + std::to_string(generation) + ".tpl";
}

/// True when `name` is a generation file (or its in-flight tmp) belonging
/// to exactly `site`: `<site>.g<digits>.tpl[.tmp]`. Site names may contain
/// dots, so a bare prefix test would also match other sites ("example" vs
/// "example.gov.g1.tpl") — the digits+suffix check pins the owner.
bool IsGenerationFileFor(const std::string& site, const std::string& name) {
  const size_t prefix_size = site.size() + 2;  // "<site>.g"
  if (name.size() <= prefix_size ||
      name.compare(0, site.size(), site) != 0 ||
      name[site.size()] != '.' || name[site.size() + 1] != 'g') {
    return false;
  }
  std::string_view rest(name);
  rest.remove_prefix(prefix_size);
  size_t digits = 0;
  while (digits < rest.size() &&
         std::isdigit(static_cast<unsigned char>(rest[digits]))) {
    ++digits;
  }
  if (digits == 0) return false;
  rest.remove_prefix(digits);
  return rest == ".tpl" || rest == ".tpl.tmp";
}

}  // namespace

bool IsValidSiteName(const std::string& site) {
  if (site.empty() || !std::isalnum(static_cast<unsigned char>(site[0]))) {
    return false;
  }
  for (char c : site) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' &&
        c != '_' && c != '-') {
      return false;
    }
  }
  return true;
}

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

Result<TemplateStore> TemplateStore::Open(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create store directory " + dir + ": " +
                            ec.message());
  }
  TemplateStore store(dir);
  fs::path manifest_path = fs::path(dir) / kManifestName;
  if (!fs::exists(manifest_path)) return store;  // fresh (or pre-commit) dir
  auto text = ReadFile(manifest_path);
  if (!text.ok()) return text.status();
  auto document = JsonValue::Parse(*text);
  if (!document.ok()) {
    return Status::ParseError("store manifest corrupt: " +
                              document.status().message());
  }
  const JsonValue* format = document->Find("format");
  if (format == nullptr || !format->IsString() ||
      format->AsString() != "thor-store") {
    return Status::ParseError("store manifest corrupt: not a thor-store");
  }
  const JsonValue* sites = document->Find("sites");
  if (sites == nullptr || !sites->IsArray()) {
    return Status::ParseError("store manifest corrupt: missing sites");
  }
  for (const JsonValue& entry : sites->items()) {
    const JsonValue* site = entry.Find("site");
    const JsonValue* generation = entry.Find("generation");
    const JsonValue* file = entry.Find("file");
    const JsonValue* checksum = entry.Find("checksum");
    if (site == nullptr || !site->IsString() || generation == nullptr ||
        !generation->IsNumber() || file == nullptr || !file->IsString() ||
        checksum == nullptr || !checksum->IsString()) {
      return Status::ParseError("store manifest corrupt: malformed entry");
    }
    const std::string& name = site->AsString();
    EntryInfo manifest;
    manifest.generation = generation->AsInt();
    if (!IsValidSiteName(name) || manifest.generation < 1 ||
        file->AsString() != GenerationFileName(name, manifest.generation)) {
      return Status::ParseError("store manifest corrupt: bad entry for \"" +
                                name + "\"");
    }
    manifest.checksum =
        std::strtoull(checksum->AsString().c_str(), nullptr, 16);
    store.entries_[name] = manifest;
  }
  return store;
}

std::string TemplateStore::ManifestJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("format").String("thor-store");
  json.Key("version").Int(1);
  json.Key("sites").BeginArray();
  for (const auto& [site, entry] : entries_) {
    json.BeginObject();
    json.Key("site").String(site);
    json.Key("generation").Int(entry.generation);
    json.Key("file").String(GenerationFileName(site, entry.generation));
    json.Key("checksum").String(ChecksumHex(entry.checksum));
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

Status TemplateStore::Put(const std::string& site,
                          const core::TemplateRegistry& registry) {
  if (!IsValidSiteName(site)) {
    return Status::InvalidArgument("invalid site name: \"" + site + "\"");
  }
  std::lock_guard<std::mutex> lock(*mu_);

  THOR_RETURN_IF_ERROR(THOR_FAILPOINT("store.put.serialize"));
  std::string document = EncodeTemplates(registry);
  auto committed = entries_.find(site);
  int64_t generation =
      (committed == entries_.end() ? 0 : committed->second.generation) + 1;
  return CommitLocked(site, document, generation);
}

Status TemplateStore::CommitLocked(const std::string& site,
                                   const std::string& document,
                                   int64_t generation) {
  EntryInfo next;
  next.generation = generation;
  next.checksum = Fnv1a64(document);
  const std::string file = GenerationFileName(site, generation);

  // The new generation's bytes land under a temp name, then rename. A
  // failure at either step leaves at worst an orphaned file that nothing
  // points at (GC'd by the next successful Put).
  THOR_RETURN_IF_ERROR(AtomicWrite(fs::path(dir_) / file, document,
                                   "store.put.template_rename"));
  THOR_RETURN_IF_ERROR(THOR_FAILPOINT("store.put.template_committed"));

  // Commit the manifest the same way. Only the final rename flips readers
  // from the old generation to the new one.
  auto committed = entries_.find(site);
  bool existed = committed != entries_.end();
  EntryInfo saved;
  if (existed) saved = committed->second;
  entries_[site] = next;
  std::string manifest = ManifestJson();
  Status st = AtomicWrite(fs::path(dir_) / kManifestName, manifest,
                          "store.put.manifest_rename");
  if (!st.ok()) {
    // Roll the in-memory view back to the committed state.
    if (existed) {
      entries_[site] = saved;
    } else {
      entries_.erase(site);
    }
    return st;
  }
  // From here the commit is durable: an error below (or a crash) leaves a
  // fully committed new generation, with only GC debt outstanding. The
  // observer (the generation ledger) fires exactly at this boundary, in
  // commit order, under the store lock.
  if (observer_) observer_(site, next.generation, next.checksum);
  THOR_RETURN_IF_ERROR(THOR_FAILPOINT("store.put.manifest_committed"));
  THOR_RETURN_IF_ERROR(THOR_FAILPOINT("store.put.gc"));

  // Garbage-collect everything the commit superseded — the old
  // generation and any orphans a previously crashed Put left behind.
  std::error_code ec;
  for (const auto& dirent : fs::directory_iterator(dir_, ec)) {
    std::string name = dirent.path().filename().string();
    if (name != file && IsGenerationFileFor(site, name)) {
      fs::remove(dirent.path(), ec);
    }
  }
  return Status::OK();
}

Result<TemplateStore::Loaded> TemplateStore::Load(
    const std::string& site) const {
  auto raw = ReadRaw(site);
  if (!raw.ok()) return raw.status();
  THOR_RETURN_IF_ERROR(THOR_FAILPOINT("store.load.deserialize"));
  auto registry = DecodeTemplates(raw->payload);
  if (!registry.ok()) {
    return Status::ParseError("template file for \"" + site +
                              "\" corrupt: " + registry.status().message());
  }
  Loaded loaded;
  loaded.registry = std::move(*registry);
  loaded.generation = raw->generation;
  return loaded;
}

int64_t TemplateStore::Generation(const std::string& site) const {
  std::lock_guard<std::mutex> lock(*mu_);
  auto it = entries_.find(site);
  return it == entries_.end() ? 0 : it->second.generation;
}

std::vector<std::string> TemplateStore::Sites() const {
  std::lock_guard<std::mutex> lock(*mu_);
  std::vector<std::string> sites;
  sites.reserve(entries_.size());
  for (const auto& [site, entry] : entries_) sites.push_back(site);
  return sites;
}

std::map<std::string, TemplateStore::EntryInfo> TemplateStore::Entries()
    const {
  std::lock_guard<std::mutex> lock(*mu_);
  return entries_;
}

Result<TemplateStore::Raw> TemplateStore::ReadRaw(
    const std::string& site) const {
  EntryInfo entry;
  {
    std::lock_guard<std::mutex> lock(*mu_);
    auto it = entries_.find(site);
    if (it == entries_.end()) {
      return Status::NotFound("site \"" + site + "\" not in store");
    }
    entry = it->second;
  }
  // The file read happens outside the lock, so a concurrent Put can commit
  // a newer generation and GC this one under us. That is not corruption:
  // on a read/checksum failure, re-check the manifest and retry against the
  // newer generation (the old-or-new contract). Only an entry that is
  // *still current* yet unreadable is a real store error.
  constexpr int kMaxLoadRetries = 4;
  for (int attempt = 0;; ++attempt) {
    THOR_RETURN_IF_ERROR(THOR_FAILPOINT("store.load.read"));
    const std::string file = GenerationFileName(site, entry.generation);
    auto document = ReadFile(fs::path(dir_) / file);
    Status failure = Status::OK();
    if (!document.ok()) {
      failure = Status::Internal("template file for \"" + site +
                                 "\" missing or unreadable: " +
                                 document.status().message());
    } else if (Fnv1a64(*document) != entry.checksum) {
      failure = Status::Internal("template file for \"" + site +
                                 "\" corrupt: checksum mismatch (" + file +
                                 ")");
    } else {
      Raw raw;
      raw.generation = entry.generation;
      raw.checksum = entry.checksum;
      raw.payload = std::move(*document);
      return raw;
    }
    std::lock_guard<std::mutex> lock(*mu_);
    auto it = entries_.find(site);
    if (it == entries_.end()) {
      return Status::NotFound("site \"" + site + "\" not in store");
    }
    if (it->second.generation == entry.generation ||
        attempt >= kMaxLoadRetries) {
      return failure;
    }
    entry = it->second;
  }
}

Status TemplateStore::AdoptGeneration(const std::string& site,
                                      int64_t generation,
                                      const std::string& payload) {
  if (!IsValidSiteName(site)) {
    return Status::InvalidArgument("invalid site name: \"" + site + "\"");
  }
  if (generation <= 0) {
    return Status::InvalidArgument("invalid generation " +
                                   std::to_string(generation));
  }
  // A payload that does not deserialize must never become the committed
  // generation — a corrupt peer would otherwise poison this replica.
  auto registry = DecodeTemplates(payload);
  if (!registry.ok()) {
    return Status::ParseError("adopted payload for \"" + site +
                              "\" corrupt: " + registry.status().message());
  }
  std::lock_guard<std::mutex> lock(*mu_);
  auto committed = entries_.find(site);
  if (committed != entries_.end()) {
    if (committed->second.generation > generation) return Status::OK();
    if (committed->second.generation == generation) {
      // Same generation on both replicas. Identical bytes: nothing to do.
      // Diverged bytes (split-brain twins that each relearned once): the
      // larger checksum wins, deterministically — both replicas applying
      // this rule converge on the same payload without coordination.
      if (committed->second.checksum >= Fnv1a64(payload)) {
        return Status::OK();
      }
    }
  }
  return CommitLocked(site, payload, generation);
}

void TemplateStore::SetCommitObserver(CommitObserver observer) {
  std::lock_guard<std::mutex> lock(*mu_);
  observer_ = std::move(observer);
}

}  // namespace thor::serve
