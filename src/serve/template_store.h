#ifndef THOR_SERVE_TEMPLATE_STORE_H_
#define THOR_SERVE_TEMPLATE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/template_registry.h"
#include "src/util/status.h"

namespace thor::serve {

/// \brief Versioned on-disk store of learned per-site extraction templates.
///
/// THOR learns a site's templates once (the expensive two-phase analysis)
/// and serves them forever; this store is the "forever" part. Layout:
///
///   DIR/MANIFEST.json          committed view: site -> generation,
///                              file name, content checksum
///   DIR/<site>.g<N>.tpl        THORTPL1 binary blob of generation N
///                              (see serve/template_codec.h)
///
/// The file name is a function of site and generation; Open rejects a
/// manifest entry naming any other file, so no manifest can steer a read
/// outside DIR.
///
/// Every write is temp-file + fsync + atomic rename, and a new
/// generation's file is fully committed *before* the manifest starts
/// pointing at it, so a process killed between any two filesystem steps
/// leaves the store loading either the old or the new generation — never
/// a torn one. The fsync before each rename extends the contract to
/// power loss: a rename cannot land pointing at unwritten data blocks.
///
/// Corruption (a manifest that no longer parses, a template file whose
/// checksum drifted, a file deleted behind the manifest's back) surfaces
/// as a typed error Status from Open/Load; it never crashes and never
/// yields a partially-built registry.
///
/// Every commit step and load step crosses a named failpoint
/// (`store.put.*`, `store.load.*` — see util/failpoint.h), which is how
/// the kill-between-writes test and the thord crash-recovery chaos suite
/// prove the old-or-new contract at every boundary.
///
/// Thread-safe: Put serializes on an internal mutex; concurrent Loads
/// share it only for the manifest lookup.
class TemplateStore {
 public:
  /// Opens (creating the directory and an empty manifest view if needed).
  /// A corrupt manifest — including an entry whose site name is invalid or
  /// whose file is not `<site>.g<generation>.tpl` — is a ParseError; an
  /// unreadable directory is an Internal error.
  static Result<TemplateStore> Open(const std::string& dir);

  TemplateStore(TemplateStore&&) = default;
  TemplateStore& operator=(TemplateStore&&) = default;

  /// Serializes `registry` as the next generation of `site` and commits it
  /// (write file, rename, write manifest, rename, then garbage-collect the
  /// superseded generation). Site names are restricted to
  /// [A-Za-z0-9][A-Za-z0-9._-]* so they embed safely in file names.
  Status Put(const std::string& site,
             const core::TemplateRegistry& registry);

  /// A committed generation loaded back from disk.
  struct Loaded {
    core::TemplateRegistry registry;
    int64_t generation = 0;
  };

  /// Loads the committed generation of `site`: ReadRaw, then the
  /// `store.load.deserialize` failpoint and DecodeTemplates. NotFound when
  /// the site was never stored; Internal on checksum mismatch or a missing
  /// template file; ParseError when the stored blob no longer decodes.
  Result<Loaded> Load(const std::string& site) const;

  /// Committed generation number of `site`, 0 when absent.
  int64_t Generation(const std::string& site) const;

  /// All stored site names, sorted.
  std::vector<std::string> Sites() const;

  /// The committed manifest view, for replication: site -> generation and
  /// payload checksum. A snapshot — concurrent Puts may supersede it.
  struct EntryInfo {
    int64_t generation = 0;
    uint64_t checksum = 0;
  };
  std::map<std::string, EntryInfo> Entries() const;

  /// The committed generation of `site` as raw payload bytes (the exact
  /// file contents the checksum covers) — what anti-entropy ships between
  /// replicas, and the read half of Load. Each attempt crosses the
  /// `store.load.read` failpoint; a read or checksum failure re-checks the
  /// manifest and retries against a newer generation (old-or-new).
  struct Raw {
    int64_t generation = 0;
    uint64_t checksum = 0;
    std::string payload;
  };
  Result<Raw> ReadRaw(const std::string& site) const;

  /// Commits `payload` verbatim as generation `generation` of `site` — the
  /// receiving half of anti-entropy, adopting a peer replica's committed
  /// bytes instead of re-serializing a registry (so the checksum, and with
  /// it the generation ledger chain, matches the sender's exactly). The
  /// payload must decode as a THORTPL1 blob. Adopting a stale
  /// generation (older than the committed one) is a silent no-op — a
  /// concurrent local relearn may have raced ahead. An equal-generation
  /// divergence (split-brain twins) resolves deterministically: the
  /// larger payload checksum wins on every replica.
  Status AdoptGeneration(const std::string& site, int64_t generation,
                         const std::string& payload);

  /// Observer invoked after every durable commit (Put or AdoptGeneration)
  /// with the site, new generation, and payload checksum — the hook the
  /// generation ledger chains from. Called with the store lock held, in
  /// commit order; keep it fast and never call back into the store.
  using CommitObserver =
      std::function<void(const std::string& site, int64_t generation,
                         uint64_t checksum)>;
  void SetCommitObserver(CommitObserver observer);

  const std::string& dir() const { return dir_; }

 private:
  explicit TemplateStore(std::string dir) : dir_(std::move(dir)) {}

  /// Renders the committed view as MANIFEST.json text.
  std::string ManifestJson() const;

  /// Shared tail of Put/AdoptGeneration: writes `document` as generation
  /// `generation`, commits the manifest, GCs superseded files, and fires
  /// the commit observer. Caller holds mu_ and has validated everything.
  Status CommitLocked(const std::string& site, const std::string& document,
                      int64_t generation);

  std::string dir_;
  std::map<std::string, EntryInfo> entries_;
  CommitObserver observer_;
  /// Heap-held so the store stays movable (Result<TemplateStore> needs it).
  std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
};

/// FNV-1a 64-bit content checksum used by the store manifest (stable,
/// dependency-free; this guards against corruption, not adversaries).
uint64_t Fnv1a64(std::string_view bytes);

/// Site names acceptable to TemplateStore::Put (and pre-filtered by the
/// serving layer before any state is touched): [A-Za-z0-9][A-Za-z0-9._-]*.
bool IsValidSiteName(const std::string& site);

}  // namespace thor::serve

#endif  // THOR_SERVE_TEMPLATE_STORE_H_
