#include "thorbench/src/serve_stack.h"

#include "thorbench/src/loadgen.h"

namespace thorbench {

using thor::serve::ExtractionService;
using thor::serve::ServerLoop;

ServeStack::ServeStack(thor::serve::TemplateStore* store,
                       thor::serve::ServiceOptions service_options, int batch,
                       thor::MetricsRegistry* metrics, bool traced)
    : service_(store, service_options), traced_(traced) {
  thor::serve::ServerLoopOptions loop_options;
  loop_options.batch = batch;
  loop_options.metrics = metrics;
  if (traced_) {
    loop_ = std::make_unique<ServerLoop>(
        [this](const std::vector<ExtractionService::Request>& requests,
               const thor::Deadline& deadline) {
          return TimedBatch(requests, deadline);
        },
        loop_options);
  } else {
    loop_ = std::make_unique<ServerLoop>(&service_, loop_options);
  }
  thor::net::NetServerOptions net_options;
  net_options.metrics = metrics;
  server_ = std::make_unique<thor::net::NetServer>(loop_.get(), net_options);
}

ServeStack::~ServeStack() { Stop(); }

std::vector<ExtractionService::Response> ServeStack::TimedBatch(
    const std::vector<ExtractionService::Request>& requests,
    const thor::Deadline& deadline) {
  const double start = NowMs();
  auto responses = service_.ExtractBatch(requests, deadline);
  const double end = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  batches_.push_back({start, end, static_cast<int>(requests.size())});
  return responses;
}

thor::Result<uint16_t> ServeStack::Start() {
  auto port = server_->Start();
  if (!port.ok()) return port.status();
  consumer_ = std::thread([this] {
    if (!traced_) {
      loop_->Run(
          [this](uint64_t tag, const std::string& site,
                 const ServerLoop::Response& response) {
            server_->Deliver(tag, site, response);
          },
          [] {});
      return;
    }
    loop_->Run(
        [this](uint64_t tag, const std::string& site,
               const ServerLoop::Response& response) {
          {
            std::lock_guard<std::mutex> lock(mu_);
            emissions_.push_back(
                {tag, NowMs(), static_cast<int64_t>(batches_.size()) - 1});
          }
          server_->Deliver(tag, site, response);
        },
        [] {});
  });
  return *port;
}

void ServeStack::Stop() {
  if (stopped_) return;
  stopped_ = true;
  server_->BeginDrain();
  if (consumer_.joinable()) consumer_.join();
  server_->Shutdown(2000.0);
}

std::vector<ServeStack::Batch> ServeStack::batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

std::vector<ServeStack::Emission> ServeStack::emissions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return emissions_;
}

}  // namespace thorbench
