#ifndef THORBENCH_SERVE_STACK_H_
#define THORBENCH_SERVE_STACK_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/net/net_server.h"
#include "src/serve/extraction_service.h"
#include "src/serve/server_loop.h"
#include "src/serve/template_store.h"
#include "src/util/metrics.h"

namespace thorbench {

/// \brief The networked thord serving stack, assembled from its public
/// parts the way `thord --listen` assembles it: ExtractionService behind a
/// ServerLoop behind a NetServer, with one consumer thread running the
/// loop.
///
/// Traced stacks wrap the two public seams the benchmark may observe
/// without touching the program: the ServerLoop batch handler (timing
/// every ExtractBatch call) and the tagged emit callback (timing every
/// emission and recording its connection tag). Untraced stacks install
/// neither, so the end-to-end run measures the program as deployed.
class ServeStack {
 public:
  struct Batch {
    double start_ms = 0.0;
    double end_ms = 0.0;
    int size = 0;
  };
  struct Emission {
    uint64_t tag = 0;
    double at_ms = 0.0;
    int64_t batch = -1;  ///< index into batches() of the batch it came from
  };

  ServeStack(thor::serve::TemplateStore* store,
             thor::serve::ServiceOptions service_options, int batch,
             thor::MetricsRegistry* metrics, bool traced);
  ~ServeStack();

  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  /// Binds an ephemeral port and starts the loop and consumer threads.
  thor::Result<uint16_t> Start();
  /// Drains, joins the consumer, and shuts the front-end down. Idempotent.
  void Stop();

  thor::serve::ServerLoop& loop() { return *loop_; }

  /// Traced stacks only: snapshots of what the hooks recorded so far.
  std::vector<Batch> batches() const;
  std::vector<Emission> emissions() const;

 private:
  std::vector<thor::serve::ExtractionService::Response> TimedBatch(
      const std::vector<thor::serve::ExtractionService::Request>& requests,
      const thor::Deadline& deadline);

  thor::serve::ExtractionService service_;
  std::unique_ptr<thor::serve::ServerLoop> loop_;
  std::unique_ptr<thor::net::NetServer> server_;
  bool traced_;
  bool stopped_ = false;

  mutable std::mutex mu_;  ///< guards batches_ and emissions_
  std::vector<Batch> batches_;
  std::vector<Emission> emissions_;

  std::thread consumer_;
};

}  // namespace thorbench

#endif  // THORBENCH_SERVE_STACK_H_
