#include "src/util/failpoint.h"

#include <cstdio>
#include <cstdlib>

namespace thor {

namespace {

/// Static catalog of every failpoint the library evaluates. Chaos suites
/// iterate this list, so a new THOR_FAILPOINT call site must be added here
/// (arming an unknown name errors, which catches catalog drift in tests).
constexpr const char* kBuiltinFailpoints[] = {
    // TemplateStore::Put, in filesystem-step order.
    "store.put.serialize",
    "store.put.template_rename",
    "store.put.template_committed",
    "store.put.manifest_rename",
    "store.put.manifest_committed",
    "store.put.gc",
    // TemplateStore::Load.
    "store.load.read",
    "store.load.deserialize",
    // ExtractionService batch-pass boundaries.
    "serve.batch.resolve",
    "serve.batch.extract",
    "serve.batch.account",
    // thord daemon batch boundaries.
    "thord.batch.drain",
    "thord.batch.flush",
    // Network front-end connection lifecycle (src/net/net_server): a new
    // connection entering, a read burst, a response write. error closes
    // the one connection; crash is the chaos suite's kill -9 with live
    // TCP clients attached.
    "net.accept",
    "net.read",
    "net.write",
    // Background relearn manager job boundaries.
    "relearn_mgr.enqueue",
    "relearn_mgr.commit",
    // Canary rollout: poison forces the canary evaluation to score the
    // fresh generation as unusable; promote/rollback bracket the commit
    // and the rejection paths.
    "canary.poison",
    "canary.promote",
    "canary.rollback",
    // Sharded fleet (src/fleet): route sits at the router's per-request
    // entry, redirect at each failover hop to the next replica, replicate
    // at the worker's anti-entropy pull boundary, and ledger-append at
    // every GenerationLedger chain extension. error degrades to a typed
    // shed / skipped round; crash is the fleet failover chaos suite's
    // kill -9 with a live client stream attached.
    "fleet.route",
    "fleet.redirect",
    "fleet.replicate",
    "fleet.ledger_append",
};

}  // namespace

const char* FailpointActionName(FailpointAction action) {
  switch (action) {
    case FailpointAction::kOff:
      return "off";
    case FailpointAction::kError:
      return "error";
    case FailpointAction::kCrash:
      return "crash";
    case FailpointAction::kDelay:
      return "delay";
  }
  return "unknown";
}

FailpointRegistry::FailpointRegistry()
    : clock_(SystemClock::Instance()) {
  for (const char* name : kBuiltinFailpoints) entries_[name] = Entry{};
  const char* spec = std::getenv("THOR_FAILPOINTS");
  if (spec != nullptr && spec[0] != '\0') {
    Status st = ArmFromSpec(spec);
    if (!st.ok()) {
      std::fprintf(stderr, "THOR_FAILPOINTS ignored: %s\n",
                   st.ToString().c_str());
    }
  }
}

FailpointRegistry* FailpointRegistry::Global() {
  // Leaked intentionally: failpoints may be evaluated during static
  // destruction of the components that declare them.
  static FailpointRegistry* registry = new FailpointRegistry();
  return registry;
}

std::vector<std::string> FailpointRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

void FailpointRegistry::Register(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.emplace(std::string(name), Entry{});
}

Status FailpointRegistry::Arm(std::string_view name,
                              std::string_view action_spec) {
  Entry armed;
  armed.hits_before_fire = 0;
  std::string_view spec = action_spec;
  // Optional "@N" suffix: fire on the Nth hit.
  size_t at = spec.rfind('@');
  if (at != std::string_view::npos) {
    int n = std::atoi(std::string(spec.substr(at + 1)).c_str());
    if (n < 1) {
      return Status::InvalidArgument("failpoint spec \"" +
                                     std::string(action_spec) +
                                     "\": @N must be >= 1");
    }
    armed.hits_before_fire = n - 1;
    spec = spec.substr(0, at);
  }
  if (spec == "error") {
    armed.action = FailpointAction::kError;
  } else if (spec == "crash") {
    armed.action = FailpointAction::kCrash;
  } else if (spec.rfind("delay=", 0) == 0) {
    armed.action = FailpointAction::kDelay;
    armed.delay_ms = std::atof(std::string(spec.substr(6)).c_str());
    if (armed.delay_ms < 0.0) {
      return Status::InvalidArgument("failpoint spec \"" +
                                     std::string(action_spec) +
                                     "\": negative delay");
    }
  } else if (spec == "off") {
    Disarm(name);
    return Status::OK();
  } else {
    return Status::InvalidArgument(
        "failpoint action \"" + std::string(action_spec) +
        "\" (want error, crash, delay=MS, or off, optionally @N)");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("unknown failpoint \"" + std::string(name) +
                            "\"");
  }
  armed.hits = it->second.hits;
  if (it->second.action == FailpointAction::kOff) {
    armed_.fetch_add(1, std::memory_order_relaxed);
  }
  it->second = armed;
  return Status::OK();
}

Status FailpointRegistry::ArmFromSpec(std::string_view spec) {
  size_t start = 0;
  while (start < spec.size()) {
    size_t end = spec.find(',', start);
    if (end == std::string_view::npos) end = spec.size();
    std::string_view item = spec.substr(start, end - start);
    start = end + 1;
    if (item.empty()) continue;
    size_t colon = item.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("failpoint spec \"" +
                                     std::string(item) +
                                     "\": want name:action");
    }
    THOR_RETURN_IF_ERROR(
        Arm(item.substr(0, colon), item.substr(colon + 1)));
  }
  return Status::OK();
}

void FailpointRegistry::Disarm(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.action == FailpointAction::kOff) {
    return;
  }
  it->second.action = FailpointAction::kOff;
  armed_.fetch_sub(1, std::memory_order_relaxed);
}

void FailpointRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) entry.action = FailpointAction::kOff;
  armed_.store(0, std::memory_order_relaxed);
}

int64_t FailpointRegistry::HitCount(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.hits;
}

void FailpointRegistry::SetClock(Clock* clock) {
  clock_.store(clock != nullptr ? clock : SystemClock::Instance(),
               std::memory_order_relaxed);
}

Status FailpointRegistry::Evaluate(std::string_view name) {
  if (armed_.load(std::memory_order_relaxed) == 0) return Status::OK();
  return EvaluateSlow(name);
}

Status FailpointRegistry::EvaluateSlow(std::string_view name) {
  FailpointAction fire = FailpointAction::kOff;
  double delay_ms = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end()) return Status::OK();
    Entry& entry = it->second;
    ++entry.hits;
    if (entry.action == FailpointAction::kOff) return Status::OK();
    if (entry.hits_before_fire > 0) {
      --entry.hits_before_fire;
      return Status::OK();
    }
    fire = entry.action;
    delay_ms = entry.delay_ms;
    // Error and crash are one-shot; a delay keeps firing (a persistently
    // slow dependency, not a single stumble).
    if (fire != FailpointAction::kDelay) {
      entry.action = FailpointAction::kOff;
      armed_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  switch (fire) {
    case FailpointAction::kError:
      return Status::Internal("failpoint \"" + std::string(name) +
                              "\" fired");
    case FailpointAction::kCrash:
      // The kill -9 simulation: no unwinding, no atexit, no stream flush.
      // Buffered-but-unflushed output is lost, exactly like a real kill.
      std::fprintf(stderr, "failpoint \"%.*s\" crashing process\n",
                   static_cast<int>(name.size()), name.data());
      std::_Exit(137);
    case FailpointAction::kDelay:
      clock_.load(std::memory_order_relaxed)->SleepMs(delay_ms);
      return Status::OK();
    case FailpointAction::kOff:
      break;
  }
  return Status::OK();
}

}  // namespace thor
