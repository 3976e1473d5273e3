#include "thorbench/src/loadgen.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>

#include "src/util/deadline.h"
#include "src/util/rng.h"

namespace thorbench {

using thor::net::IoResult;
using thor::net::IoStatus;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<Scheduled> PoissonSchedule(double rate_rps, double duration_ms,
                                       uint64_t seed,
                                       const std::function<uint32_t()>& pick) {
  std::vector<Scheduled> schedule;
  if (rate_rps <= 0.0) return schedule;
  schedule.reserve(static_cast<size_t>(rate_rps * duration_ms / 1000.0 * 1.1));
  thor::Rng rng(seed);
  const double mean_gap_ms = 1000.0 / rate_rps;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.UniformDouble()) * mean_gap_ms;
    if (t >= duration_ms) break;
    schedule.push_back({t, pick()});
  }
  return schedule;
}

std::vector<double> PhaseResult::LatenciesMs() const {
  std::vector<double> out;
  out.reserve(records.size());
  for (const Record& r : records) {
    if (r.answered && r.ok) out.push_back(r.recv_ms - r.sched_ms);
  }
  return out;
}

std::string RenderRequest(OpenLoopClient::Protocol protocol,
                          const std::string& json_line) {
  if (protocol == OpenLoopClient::Protocol::kNdjson) return json_line + "\n";
  return thor::net::SerializeRequest(
      "POST", "/extract", json_line,
      {{"Host", "127.0.0.1"}, {"Content-Type", "application/json"}});
}

OpenLoopClient::OpenLoopClient(Protocol protocol, int connections)
    : protocol_(protocol),
      conns_(static_cast<size_t>(std::max(1, connections))),
      sent_log_(conns_.size()) {}

thor::Status OpenLoopClient::Connect(uint16_t port) {
  for (Conn& conn : conns_) {
    auto sock = thor::net::ConnectTcp("127.0.0.1", port, thor::Deadline());
    if (!sock.ok()) return sock.status();
    conn.sock = std::move(*sock);
  }
  return thor::Status::OK();
}

bool OpenLoopClient::Flush(Conn& conn) {
  while (conn.outbox_offset < conn.outbox.size()) {
    IoResult io = thor::net::WriteSome(conn.sock.fd(),
                                       conn.outbox.data() + conn.outbox_offset,
                                       conn.outbox.size() - conn.outbox_offset);
    if (io.status == IoStatus::kOk) {
      conn.outbox_offset += io.bytes;
      continue;
    }
    if (io.status == IoStatus::kWouldBlock) return true;
    conn.broken = true;
    return false;
  }
  conn.outbox.clear();
  conn.outbox_offset = 0;
  return true;
}

void OpenLoopClient::Deliver(Conn& conn, PhaseResult* result,
                             const Check& check, int status,
                             std::string_view body, double now) {
  if (conn.inflight_head >= conn.inflight.size()) {
    ++result->failures;  // a response nobody asked for
    return;
  }
  const size_t index = conn.inflight[conn.inflight_head++];
  Record& record = result->records[index];
  record.answered = true;
  record.recv_ms = now;
  record.ok = check(record, index, status, body);
  if (!record.ok) ++result->failures;
}

bool OpenLoopClient::Drain(Conn& conn, PhaseResult* result,
                           const Check& check) {
  char buf[1 << 16];
  for (;;) {
    IoResult io = thor::net::ReadSome(conn.sock.fd(), buf, sizeof(buf));
    if (io.status == IoStatus::kWouldBlock) return true;
    if (io.status != IoStatus::kOk) {
      conn.broken = true;
      return false;
    }
    const double now = NowMs();
    if (protocol_ == Protocol::kNdjson) {
      conn.inbox.append(buf, io.bytes);
      size_t begin = 0;
      for (;;) {
        const size_t eol = conn.inbox.find('\n', begin);
        if (eol == std::string::npos) break;
        Deliver(conn, result, check, 200,
                std::string_view(conn.inbox).substr(begin, eol - begin), now);
        begin = eol + 1;
      }
      conn.inbox.erase(0, begin);
      continue;
    }
    std::string_view data(buf, io.bytes);
    for (;;) {
      size_t consumed = 0;
      thor::net::ParseState state = conn.parser.Feed(data, &consumed);
      data.remove_prefix(std::min(consumed, data.size()));
      if (state == thor::net::ParseState::kNeedMore) break;
      if (state == thor::net::ParseState::kError) {
        conn.broken = true;
        return false;
      }
      const thor::net::HttpResponse& response = conn.parser.response();
      std::string_view body(response.body);
      if (!body.empty() && body.back() == '\n') body.remove_suffix(1);
      Deliver(conn, result, check, response.status_code, body, now);
      conn.parser.Reset();
    }
  }
}

PhaseResult OpenLoopClient::Run(const std::vector<Scheduled>& schedule,
                                const std::vector<std::string>& payloads,
                                const Check& check, const Tick& tick,
                                double drain_ms,
                                const std::vector<int>* conn_of) {
  const int phase = phases_run_++;
  PhaseResult result;
  result.records.resize(schedule.size());
  result.late_ms.reserve(schedule.size());
  for (Conn& conn : conns_) {
    conn.inflight.clear();
    conn.inflight_head = 0;
  }
  std::vector<pollfd> pfds(conns_.size());
  // A short lead so the first arrivals are not late by construction.
  result.start_ms = NowMs() + 2.0;
  const double start = result.start_ms;
  const double last_due =
      schedule.empty() ? start : start + schedule.back().at_ms;
  const double give_up = last_due + drain_ms;
  size_t next = 0;
  int64_t sent = 0;
  int64_t answered_total = 0;
  double next_sample = start;
  size_t rr = 0;
  for (;;) {
    double now = NowMs();
    while (next < schedule.size() && start + schedule[next].at_ms <= now) {
      const Scheduled& item = schedule[next];
      size_t c = conn_of != nullptr ? static_cast<size_t>((*conn_of)[next])
                                    : rr++ % conns_.size();
      Conn& conn = conns_[c];
      Record& record = result.records[next];
      record.payload = item.payload;
      record.conn = static_cast<int>(c);
      record.sched_ms = start + item.at_ms;
      if (conn.broken) {
        ++result.failures;
        ++next;
        continue;
      }
      conn.outbox.append(payloads[item.payload]);
      result.late_ms.push_back(now - record.sched_ms);
      conn.inflight.push_back(next);
      sent_log_[c].push_back({phase, static_cast<uint32_t>(next)});
      Flush(conn);
      ++sent;
      ++next;
      now = NowMs();
    }
    if (tick) tick(now, start);
    answered_total = 0;
    for (const Conn& conn : conns_) {
      answered_total += static_cast<int64_t>(conn.inflight_head);
    }
    if (next < schedule.size() && now >= next_sample) {
      result.outstanding.push_back(static_cast<double>(sent - answered_total));
      next_sample += kOutstandingSampleMs;
    }
    bool all_done = next >= schedule.size();
    if (all_done) {
      for (const Conn& conn : conns_) {
        if (!conn.broken && conn.inflight_head < conn.inflight.size()) {
          all_done = false;
        }
      }
    }
    if (all_done || now > give_up) break;

    for (size_t c = 0; c < conns_.size(); ++c) {
      pfds[c].fd = conns_[c].broken ? -1 : conns_[c].sock.fd();
      pfds[c].events = POLLIN;
      if (conns_[c].outbox_offset < conns_[c].outbox.size()) {
        pfds[c].events |= POLLOUT;
      }
      pfds[c].revents = 0;
    }
    double wait_ms = next < schedule.size()
                         ? start + schedule[next].at_ms - now
                         : give_up - now;
    wait_ms = std::clamp(wait_ms, 0.0, 50.0);
    timespec timeout;
    timeout.tv_sec = 0;
    timeout.tv_nsec = static_cast<long>(wait_ms * 1e6);
    ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
    for (size_t c = 0; c < conns_.size(); ++c) {
      Conn& conn = conns_[c];
      if (conn.broken) continue;
      if ((pfds[c].revents & POLLOUT) != 0) Flush(conn);
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        Drain(conn, &result, check);
      }
    }
  }
  for (const Record& record : result.records) {
    if (!record.answered && record.conn >= 0 &&
        !conns_[static_cast<size_t>(record.conn)].broken) {
      ++result.failures;
    }
  }
  // Requests stranded on a broken connection never got an answer.
  for (const Conn& conn : conns_) {
    if (conn.broken) {
      result.failures +=
          static_cast<int64_t>(conn.inflight.size() - conn.inflight_head);
    }
  }
  result.end_ms = NowMs();
  return result;
}

}  // namespace thorbench
