#include "net/transport.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "util/logging.h"
#include "util/stopwatch.h"

namespace gstored {

bool StageResult::complete() const {
  for (const SiteStageReport& s : sites) {
    if (!s.ok) return false;
  }
  return true;
}

size_t StageResult::total_retries() const {
  size_t retries = 0;
  for (const SiteStageReport& s : sites) {
    if (s.attempts > 1) retries += static_cast<size_t>(s.attempts - 1);
  }
  return retries;
}

size_t StageResult::hedged_sites() const {
  size_t n = 0;
  for (const SiteStageReport& s : sites) {
    if (s.hedged) ++n;
  }
  return n;
}

namespace {

/// A message as observed by the coordinator: payload plus its virtual
/// arrival time (injected latency + retry backoff; nothing actually sleeps).
struct DeliveredMessage {
  WireMessage msg;
  double arrival_ms = 0.0;
};

/// Ships one attempt of a site's stamped send buffer (payloads + done
/// marker), restamping only the attempt header, and returns the
/// coordinator-side inbox in arrival order. This is the channel: it applies
/// the send-side faults (drop, duplicate, latency stamps, and with
/// `plan.reorder` a scrambled arrival order) and accounts every byte put on
/// the wire; `base_offset_ms` shifts arrival times by the accumulated
/// backoff.
std::vector<DeliveredMessage> ShipBuffered(
    const FaultPlan& plan, ShipmentLedger& ledger, int site, uint32_t stage,
    uint32_t attempt, const std::vector<WireMessage>& buffer,
    ShipmentLedger::StageId ledger_stage, double base_offset_ms) {
  std::vector<DeliveredMessage> inbox;
  for (const WireMessage& stamped : buffer) {
    WireMessage msg = stamped;
    msg.attempt = attempt;
    // Bytes hit the wire whether or not the message survives the trip, and
    // a duplicated message is shipped twice — the ledger counts both, since
    // the paper's shipment metric measures traffic, not goodput.
    const bool dup = plan.Duplicate(site, stage, attempt, msg.seq, false);
    ledger.Add(ledger_stage, msg.WireSize() * (dup ? 2 : 1));
    if (plan.Drop(site, stage, attempt, msg.seq, false)) continue;
    DeliveredMessage delivered;
    delivered.arrival_ms =
        base_offset_ms + plan.LatencyMs(site, stage, attempt, msg.seq, false);
    delivered.msg = std::move(msg);
    if (dup) inbox.push_back(delivered);
    inbox.push_back(std::move(delivered));
  }
  if (plan.reorder) {
    std::sort(inbox.begin(), inbox.end(),
              [&](const DeliveredMessage& a, const DeliveredMessage& b) {
                return plan.ReorderKey(site, stage, a.msg.attempt, a.msg.seq) <
                       plan.ReorderKey(site, stage, b.msg.attempt, b.msg.seq);
              });
  }
  return inbox;
}

/// One site's reassembled view of a single attempt: the inbox deduplicated
/// by sequence number and restored to sequence order (the done marker still
/// in place), with the done-marker completeness check applied.
struct ReassembledAttempt {
  bool all_arrived = false;
  double last_arrival = 0.0;
  std::vector<DeliveredMessage> inbox;
};

ReassembledAttempt ReassembleSiteAttempt(std::vector<DeliveredMessage> inbox) {
  ReassembledAttempt out;
  // Deduplicate by sequence number and restore sequence order — this is
  // what makes duplication and reordering invisible to the pipeline.
  std::sort(inbox.begin(), inbox.end(),
            [](const DeliveredMessage& a, const DeliveredMessage& b) {
              return a.msg.seq < b.msg.seq;
            });
  inbox.erase(std::unique(inbox.begin(), inbox.end(),
                          [](const DeliveredMessage& a,
                             const DeliveredMessage& b) {
                            return a.msg.seq == b.msg.seq;
                          }),
              inbox.end());

  uint32_t expected = 0;
  bool have_done = false;
  for (const DeliveredMessage& d : inbox) {
    out.last_arrival = std::max(out.last_arrival, d.arrival_ms);
    if (d.msg.type == MessageType::kStageDone) {
      auto count = DecodeDoneMarker(d.msg.payload);
      if (count.ok()) {
        have_done = true;
        expected = count.value();
      }
    }
  }
  out.all_arrived = have_done;
  if (have_done) {
    // Payload seqs must be exactly 0..expected-1 (the done marker itself
    // is seq == expected).
    uint32_t payload_count = 0;
    for (const DeliveredMessage& d : inbox) {
      if (d.msg.type != MessageType::kStageDone && d.msg.seq < expected) {
        ++payload_count;
      }
    }
    out.all_arrived = payload_count == expected;
  }
  out.inbox = std::move(inbox);
  return out;
}

}  // namespace

Transport::Transport(int num_sites, ShipmentLedger* ledger, FaultPlan plan,
                     uint32_t session_id)
    : num_sites_(num_sites),
      ledger_(ledger),
      plan_(std::move(plan)),
      session_id_(session_id) {
  GSTORED_CHECK_GT(num_sites, 0);
  GSTORED_CHECK(ledger != nullptr);
}

StageResult Transport::ExecuteStage(
    uint32_t stage, ShipmentLedger::StageId ledger_stage,
    const StagePolicy& policy,
    const std::function<std::vector<WireMessage>(int site)>& site_fn) {
  GSTORED_CHECK_GE(policy.max_attempts, 1);
  StageResult result;
  result.sites.assign(num_sites_, SiteStageReport{});
  result.messages.assign(num_sites_, {});
  // Each site thread writes only its own slot of the timing vectors.
  std::vector<double>& queue_wait_ms = result.run.queue_wait_millis;
  std::vector<double>& exec_ms = result.run.exec_millis;
  queue_wait_ms.assign(num_sites_, 0.0);
  exec_ms.assign(num_sites_, 0.0);

  // One thread per site runs that site's entire attempt loop against a
  // private inbox, so deadlines, backoff and hedging fire per site. All
  // deadline math is virtual and every fault draw is keyed by (site, stage,
  // attempt, seq), so reports, ledger bytes and payloads replay
  // byte-identically whatever the thread scheduling.
  auto run_site = [&](int site) {
    SiteStageReport& report = result.sites[site];
    // Stamped payloads plus the done marker; filled by the site's one
    // site_fn call, then re-shipped by every retry.
    std::vector<WireMessage> buffer;
    auto fill_buffer = [&] {
      Stopwatch watch;
      buffer = site_fn(site);
      exec_ms[site] += watch.ElapsedMillis();
      // The end-of-stage marker carries the payload count, so the
      // coordinator can tell "everything arrived" from "some messages are
      // still missing" under drops and reordering. It rides the same faulty
      // channel.
      buffer.push_back(MakeMessage(
          MessageType::kStageDone,
          EncodeDoneMarker(static_cast<uint32_t>(buffer.size()))));
      for (uint32_t seq = 0; seq < buffer.size(); ++seq) {
        buffer[seq].sender = site;
        buffer[seq].session = session_id_;
        buffer[seq].stage = stage;
        buffer[seq].seq = seq;
      }
    };
    std::vector<WireMessage>& delivered = result.messages[site];

    report.crashed = plan_.SiteDead(site, stage);
    if (report.crashed) {
      report.attempts = 1;
    } else {
      fill_buffer();
      double backoff = 0.0;
      for (int attempt = 0; attempt < policy.max_attempts && !report.ok;
           ++attempt) {
        report.attempts = attempt + 1;
        ReassembledAttempt r = ReassembleSiteAttempt(
            ShipBuffered(plan_, *ledger_, site, stage,
                         static_cast<uint32_t>(attempt), buffer, ledger_stage,
                         backoff));
        if (r.all_arrived &&
            r.last_arrival <= policy.deadline_ms + backoff) {
          report.ok = true;
          queue_wait_ms[site] += r.last_arrival;
          for (DeliveredMessage& d : r.inbox) {
            if (d.msg.type != MessageType::kStageDone) {
              delivered.push_back(std::move(d.msg));
            }
          }
        } else {
          // Blown deadline: the coordinator waited the full window, then
          // backs off before redispatching.
          double next_backoff = policy.backoff_ms * std::ldexp(1.0, attempt);
          queue_wait_ms[site] += policy.deadline_ms + next_backoff;
          backoff += policy.deadline_ms + next_backoff;
        }
      }
    }

    // Out of attempts: hedge against the coordinator-local fragment copy,
    // whose output is the buffered payloads (done marker stripped), or give
    // up and let the caller degrade.
    if (!report.ok && policy.hedge_local) {
      if (buffer.empty()) fill_buffer();
      delivered.assign(buffer.begin(), buffer.end() - 1);
      report.ok = true;
      report.hedged = true;
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(num_sites_);
  for (int site = 0; site < num_sites_; ++site) {
    threads.emplace_back(run_site, site);
  }
  for (std::thread& t : threads) t.join();

  result.run.site_millis.assign(num_sites_, 0.0);
  for (int site = 0; site < num_sites_; ++site) {
    result.run.site_millis[site] = queue_wait_ms[site] + exec_ms[site];
  }
  result.run.max_millis = *std::max_element(result.run.site_millis.begin(),
                                            result.run.site_millis.end());
  return result;
}

std::vector<bool> Transport::BroadcastReliable(
    uint32_t stage, ShipmentLedger::StageId ledger_stage,
    const StagePolicy& policy, const std::vector<size_t>& wire_bytes) {
  GSTORED_CHECK_GE(policy.max_attempts, 1);
  GSTORED_CHECK_EQ(wire_bytes.size(), static_cast<size_t>(num_sites_));
  std::vector<bool> delivered(num_sites_, false);
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    bool all = true;
    for (int site = 0; site < num_sites_; ++site) {
      if (delivered[site]) continue;
      if (plan_.SiteDead(site, stage)) {
        all = false;
        continue;
      }
      const bool dup =
          plan_.Duplicate(site, stage, static_cast<uint32_t>(attempt), 0,
                          /*to_site=*/true);
      ledger_->Add(ledger_stage, wire_bytes[site] * (dup ? 2 : 1));
      if (plan_.Drop(site, stage, static_cast<uint32_t>(attempt), 0,
                     /*to_site=*/true)) {
        all = false;
        continue;
      }
      double arrival = plan_.LatencyMs(site, stage,
                                       static_cast<uint32_t>(attempt), 0,
                                       /*to_site=*/true);
      if (arrival > policy.deadline_ms) {
        all = false;
        continue;
      }
      delivered[site] = true;
    }
    if (all) break;
  }
  return delivered;
}

}  // namespace gstored
