#ifndef THOR_SERVE_RELEARN_MANAGER_H_
#define THOR_SERVE_RELEARN_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/hot_extractor.h"
#include "src/core/page.h"
#include "src/core/template_registry.h"
#include "src/core/thor.h"
#include "src/serve/template_store.h"
#include "src/util/clock.h"
#include "src/util/deadline.h"
#include "src/util/metrics.h"

namespace thor::serve {

/// A template hit whose confidence (`TemplateRegistry::Located::
/// Confidence`) lands below this is low-confidence: the service counts it
/// in the per-site accounting and scores it 0.5 in the drift detector (an
/// early staleness signal), and the canary does not count it as a hit.
inline constexpr double kLowConfidence = 0.35;

/// Tuning knobs for the background relearn worker pool.
struct RelearnManagerOptions {
  /// Maximum relearn jobs running concurrently (clamped to >= 1). Workers
  /// are tasks on the process-wide util/parallel pool, not dedicated
  /// threads: an idle manager costs nothing.
  int workers = 1;
  /// Pending-job bound. A full queue sheds its *oldest* job (the freshest
  /// drift evidence wins) and counts `serve.relearn_shed`.
  size_t queue_capacity = 8;
  /// Recent pages retained per site as the canary shadow corpus (ring
  /// buffer; 0 disables canary evaluation — every relearn promotes).
  size_t canary_sample = 8;
  /// Promotion floor: the canary generation must locate at least
  /// `canary_floor * live_hits` of the shadow sample, where live_hits is
  /// what the committed generation locates. A relative floor keeps sites
  /// whose recent traffic is mostly no-match pages promotable.
  double canary_floor = 0.9;
  /// Budget for one background relearn, in milliseconds on `clock`
  /// (0 = unbounded), measured from job start. An overrun aborts with
  /// kDeadlineExceeded and commits nothing. Relearns run the pipeline
  /// under `core::ThorOptions{}` and this deadline.
  double relearn_deadline_ms = 0.0;
  /// Optional sinks: serve.relearn_* counters, serve.relearn_queue_depth,
  /// serve.canary.* counters, serve.relearn_latency_ms histogram.
  MetricsRegistry* metrics = nullptr;
  /// Time source for deadlines and the latency histogram (null = wall
  /// clock).
  const Clock* clock = nullptr;
};

/// \brief Bounded queue of background template-relearn jobs with canary
/// rollout.
///
/// The serving path must never stall on a full Probe->Cluster->Discover
/// run. ExtractBatch only *enqueues* relearn work here (deduplicated per
/// site, bounded, shed-oldest under overload); jobs drain on util/parallel
/// workers. Each finished relearn is *canaried* before it can serve: the
/// fresh registry is shadow-extracted — through core::HotExtractor, the
/// same code that will serve it — against a ring buffer of the site's
/// recent pages and compared with the committed (live) generation. Only a
/// canary meeting the quality floor is committed to the TemplateStore (the
/// store's atomic temp+rename commit); a failing canary is auto-rolled-back
/// — the superseded generation keeps serving and `serve.canary.rollbacks`
/// counts the save.
///
/// Determinism contract: every job carries the ticket of the batch that
/// enqueued it, and `TakeReady(bound)` blocks until all jobs with ticket <=
/// bound are finished before handing their promoted generations back for
/// adoption. The caller picks the bound from its own batch counter, so
/// which batch first serves a relearned generation is a pure function of
/// the request stream — independent of thread count and scheduling.
///
/// Failpoints: `relearn_mgr.enqueue` (admission), `relearn_mgr.commit`
/// (store write), `canary.poison` (forces the canary score to zero — the
/// deliberately-bad-generation chaos hook), `canary.promote` and
/// `canary.rollback` (decision boundaries).
///
/// Thread-safe.
class RelearnManager {
 public:
  /// Supplies a fresh probed sample for `site`. `ticket` is the enqueuing
  /// batch's ticket, so a simulator-backed provider can reconstruct the
  /// drift epoch the stream was at when the job was scheduled (wall time
  /// would not be deterministic). Runs on a worker; must be safe to call
  /// concurrently for *different* sites (per-site dedup guarantees at most
  /// one job per site in flight).
  using SampleProvider = std::function<std::vector<core::Page>(
      const std::string& site, uint64_t ticket)>;

  /// `store` must outlive the manager. Null `sampler` makes every job fail
  /// benignly (useful in tests of the queue mechanics).
  RelearnManager(TemplateStore* store, RelearnManagerOptions options,
                 SampleProvider sampler);
  ~RelearnManager();

  RelearnManager(const RelearnManager&) = delete;
  RelearnManager& operator=(const RelearnManager&) = delete;

  /// Records a served page of `site` into its canary shadow ring.
  void ObservePage(const std::string& site, std::string_view html);

  enum class Enqueued {
    kAccepted,   ///< job queued (ticket joins the rendezvous)
    kDuplicate,  ///< a job for this site is already pending or running
    kRejected,   ///< admission failpoint or stopped manager
  };
  /// Schedules a background relearn of `site`, tagged with the enqueuing
  /// batch's `ticket`. Never blocks on relearn work. The canary shadow
  /// sample is snapshotted *now* (serial caller context), so the job's
  /// promote/rollback decision cannot race later ObservePage calls.
  Enqueued Enqueue(const std::string& site, uint64_t ticket);

  /// One finished job. `promoted` means the fresh generation won its
  /// canary and `registry`/`generation` are ready for cache adoption;
  /// `rolled_back` means the canary was evaluated and rejected (the store
  /// still holds the superseded generation). Neither flag set = the
  /// relearn itself failed (empty sample, pipeline error, deadline).
  struct Completed {
    std::string site;
    uint64_t ticket = 0;
    bool promoted = false;
    bool rolled_back = false;
    core::TemplateRegistry registry;
    int64_t generation = 0;
  };

  /// Rendezvous: blocks until no pending or running job has ticket <=
  /// `bound` (or `deadline` expires / the manager stops), then removes and
  /// returns the finished results with ticket <= `bound`, ordered by
  /// (ticket, site). Call *without* holding caller locks.
  std::vector<Completed> TakeReady(uint64_t bound,
                                   const Deadline& deadline = {});

  /// Cancels pending jobs, asks running ones to stop at their next stage
  /// boundary, and waits for the workers to drain. Idempotent.
  void Stop();

  /// Pending (not yet running) jobs, for tests and gauges.
  size_t queue_depth() const;

 private:
  struct Job {
    std::string site;
    uint64_t ticket = 0;
    /// Shadow sample snapshotted at enqueue time.
    std::vector<std::string> sample;
  };
  struct PageRing {
    std::vector<std::string> pages;
    size_t next = 0;
  };

  /// Worker body: pops and runs jobs until the queue is empty or the
  /// manager stops.
  void DrainLoop();
  Completed RunJob(Job job);
  /// Shadow-extracts `templates` over `sample` with `extractor` (Parse +
  /// Locate, as serving runs them); returns the number of pages located
  /// with confidence >= kLowConfidence.
  int ScoreSample(core::HotExtractor* extractor,
                  const core::CompiledTemplates& templates,
                  const std::vector<std::string>& sample) const;

  TemplateStore* store_;
  RelearnManagerOptions options_;
  SampleProvider sampler_;
  const Clock* clock_;
  StopSource stop_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> pending_;
  std::set<std::string> inflight_;  ///< sites pending or running
  /// Tickets of every unfinished job — the rendezvous frontier.
  std::multiset<uint64_t> unfinished_tickets_;
  std::vector<Completed> done_;
  std::map<std::string, PageRing> recent_;
  int active_drainers_ = 0;
  bool stopped_ = false;
};

}  // namespace thor::serve

#endif  // THOR_SERVE_RELEARN_MANAGER_H_
