// Unit tests for the simulated cluster: shipment ledger accounting (thread
// safety included), transport semantics under injected faults, and
// per-site stage execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/cluster.h"
#include "net/transport.h"

namespace gstored {
namespace {

TEST(ShipmentLedgerTest, AccumulatesPerStage) {
  ShipmentLedger ledger;
  ledger.Add("a", 100);
  ledger.Add("a", 50);
  ledger.Add("b", 7);
  EXPECT_EQ(ledger.StageBytes("a"), 150u);
  EXPECT_EQ(ledger.StageBytes("b"), 7u);
  EXPECT_EQ(ledger.StageBytes("missing"), 0u);
  EXPECT_EQ(ledger.TotalBytes(), 157u);
  auto breakdown = ledger.Breakdown();
  ASSERT_EQ(breakdown.size(), 2u);
  EXPECT_EQ(breakdown[0].first, "a");
  ledger.Reset();
  EXPECT_EQ(ledger.TotalBytes(), 0u);
}

TEST(ShipmentLedgerTest, ConcurrentAddsAreLossless) {
  ShipmentLedger ledger;
  std::vector<std::thread> threads;
  for (int site = 0; site < 8; ++site) {
    threads.emplace_back([&ledger, site] {
      for (int i = 0; i < 1000; ++i) {
        ledger.Add("stage", 1);
        ledger.Add("site" + std::to_string(site), 2);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ledger.StageBytes("stage"), 8000u);
  for (int s = 0; s < 8; ++s) {
    EXPECT_EQ(ledger.StageBytes("site" + std::to_string(s)), 2000u);
  }
}

TEST(ShipmentLedgerTest, InternedStageIdsCountLockFree) {
  ShipmentLedger ledger;
  ShipmentLedger::StageId a = ledger.Intern("alpha");
  EXPECT_EQ(ledger.Intern("alpha"), a);
  ShipmentLedger::StageId b = ledger.Intern("beta");
  EXPECT_NE(a, b);
  ledger.Add(a, 10);
  ledger.Add(b, 5);
  ledger.Add(a, 1);
  EXPECT_EQ(ledger.StageBytes(a), 11u);
  EXPECT_EQ(ledger.StageBytes("alpha"), 11u);
  EXPECT_EQ(ledger.StageBytes(b), 5u);
  EXPECT_EQ(ledger.TotalBytes(), 16u);
  // kUnaccounted is a sink: control-plane traffic is recorded nowhere.
  ledger.Add(ShipmentLedger::kUnaccounted, 1000);
  EXPECT_EQ(ledger.TotalBytes(), 16u);
  EXPECT_EQ(ledger.StageBytes(ShipmentLedger::kUnaccounted), 0u);
  auto breakdown = ledger.Breakdown();
  ASSERT_EQ(breakdown.size(), 2u);
  EXPECT_EQ(breakdown[0].first, "alpha");
  EXPECT_EQ(breakdown[1].first, "beta");
  ledger.Reset();
  EXPECT_EQ(ledger.StageBytes(a), 0u);
  ledger.Add(a, 3);  // interned ids stay valid across Reset
  EXPECT_EQ(ledger.StageBytes("alpha"), 3u);
}

TEST(TransportTest, NoFaultStageDeliversEverythingFirstAttempt) {
  ShipmentLedger ledger;
  Transport transport(3, &ledger);
  ShipmentLedger::StageId stage_id = ledger.Intern("stage");
  StageResult result = transport.ExecuteStage(
      0, stage_id, StagePolicy{}, [](int site) {
        std::vector<WireMessage> msgs;
        msgs.push_back(MakeMessage(
            MessageType::kCandidateEstimates,
            EncodeEstimates({static_cast<double>(site), 1.0})));
        msgs.push_back(
            MakeMessage(MessageType::kCandidateEstimates, EncodeEstimates({2.0})));
        return msgs;
      });
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.total_retries(), 0u);
  EXPECT_EQ(result.hedged_sites(), 0u);
  for (int site = 0; site < 3; ++site) {
    const SiteStageReport& report = result.sites[site];
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.attempts, 1);
    EXPECT_FALSE(report.hedged);
    // Payloads come back in sequence order with the done marker stripped.
    ASSERT_EQ(result.messages[site].size(), 2u);
    EXPECT_EQ(result.messages[site][0].seq, 0u);
    EXPECT_EQ(result.messages[site][1].seq, 1u);
    auto est = DecodeEstimates(result.messages[site][0].payload);
    ASSERT_TRUE(est.ok());
    EXPECT_EQ((*est)[0], static_cast<double>(site));
  }
  // Every send is accounted at wire size: per site two estimate payloads
  // (header + count 4 + 8 per double) plus the done marker (header + 4).
  const size_t h = WireMessage::kHeaderBytes;
  size_t per_site = (h + 4 + 16) + (h + 4 + 8) + (h + 4);
  EXPECT_EQ(ledger.StageBytes(stage_id), 3 * per_site);
}

TEST(TransportTest, StragglerExhaustsRetriesThenHedges) {
  FaultPlan plan;
  plan.site_overrides[1].straggler = true;
  ShipmentLedger ledger;
  Transport transport(2, &ledger, plan);
  StagePolicy policy;
  policy.max_attempts = 3;
  auto site_fn = [](int site) {
    std::vector<WireMessage> msgs;
    msgs.push_back(MakeMessage(MessageType::kCandidateEstimates,
                               EncodeEstimates({static_cast<double>(site)})));
    return msgs;
  };
  StageResult hedged = transport.ExecuteStage(0, ShipmentLedger::kUnaccounted,
                                              policy, site_fn);
  EXPECT_TRUE(hedged.complete());
  EXPECT_TRUE(hedged.sites[1].hedged);
  EXPECT_EQ(hedged.sites[1].attempts, 3);
  EXPECT_EQ(hedged.total_retries(), 2u);
  EXPECT_FALSE(hedged.sites[0].hedged);
  ASSERT_EQ(hedged.messages[1].size(), 1u);
  // Queue wait accumulates the blown deadlines plus backoff for the
  // straggler only.
  EXPECT_GT(hedged.run.queue_wait_millis[1], 3 * policy.deadline_ms);
  EXPECT_LT(hedged.run.queue_wait_millis[0], policy.deadline_ms);
  EXPECT_EQ(ledger.TotalBytes(), 0u);  // kUnaccounted stage

  // Without hedging the site is reported failed, with no messages.
  policy.hedge_local = false;
  StageResult failed = transport.ExecuteStage(0, ShipmentLedger::kUnaccounted,
                                              policy, site_fn);
  EXPECT_FALSE(failed.complete());
  EXPECT_FALSE(failed.sites[1].ok);
  EXPECT_TRUE(failed.messages[1].empty());
  EXPECT_TRUE(failed.sites[0].ok);
}

TEST(TransportTest, CrashedSiteSkipsExecutionAndBroadcasts) {
  FaultPlan plan;
  plan.site_overrides[0].crash_at_stage =
      static_cast<int>(StageOrdinal(QueryStage::kPartialEval));
  ShipmentLedger ledger;
  Transport transport(2, &ledger, plan);
  StagePolicy policy;
  policy.hedge_local = false;
  std::atomic<int> calls{0};
  auto site_fn = [&](int) {
    ++calls;
    std::vector<WireMessage> msgs;
    msgs.push_back(
        MakeMessage(MessageType::kCandidateEstimates, EncodeEstimates({1.0})));
    return msgs;
  };
  // Before the crash stage the site is healthy.
  StageResult before = transport.ExecuteStage(1, ShipmentLedger::kUnaccounted,
                                              policy, site_fn);
  EXPECT_TRUE(before.complete());
  // At the crash stage the site never runs and is marked crashed.
  calls = 0;
  StageResult at = transport.ExecuteStage(2, ShipmentLedger::kUnaccounted,
                                          policy, site_fn);
  EXPECT_FALSE(at.complete());
  EXPECT_TRUE(at.sites[0].crashed);
  EXPECT_FALSE(at.sites[0].ok);
  EXPECT_TRUE(at.sites[1].ok);
  EXPECT_EQ(calls.load(), 1);
  // Broadcasts to the dead site fail; the live site receives. Only the live
  // site's one send reaches the wire: the dead site is never sent to, on
  // any of the policy's attempts.
  EXPECT_EQ(ledger.TotalBytes(), 0u);  // the stages above are kUnaccounted
  const WireMessage bitmap =
      MakeMessage(MessageType::kSkipBitmap, EncodeBitmap({true}));
  std::vector<bool> delivered = transport.BroadcastReliable(
      3, ledger.Intern("broadcast"), policy,
      {bitmap.WireSize(), bitmap.WireSize()});
  EXPECT_FALSE(delivered[0]);
  EXPECT_TRUE(delivered[1]);
  EXPECT_EQ(ledger.StageBytes("broadcast"), bitmap.WireSize());
  EXPECT_EQ(ledger.TotalBytes(), bitmap.WireSize());
}

TEST(TransportTest, DuplicationAndReorderAreInvisible) {
  auto site_fn = [](int site) {
    std::vector<WireMessage> msgs;
    for (uint32_t i = 0; i < 4; ++i) {
      msgs.push_back(MakeMessage(
          MessageType::kCandidateEstimates,
          EncodeEstimates({static_cast<double>(site), static_cast<double>(i)})));
    }
    return msgs;
  };
  StagePolicy policy;

  ShipmentLedger clean_ledger;
  Transport clean(2, &clean_ledger);
  ShipmentLedger::StageId clean_stage = clean_ledger.Intern("s");
  StageResult expected = clean.ExecuteStage(0, clean_stage, policy, site_fn);
  ASSERT_TRUE(expected.complete());

  FaultPlan plan;
  plan.seed = 7;
  plan.reorder = true;
  plan.default_fault.duplicate_prob = 1.0;
  plan.default_fault.latency_mean_ms = 2.0;
  plan.default_fault.latency_jitter_ms = 1.0;
  ShipmentLedger faulty_ledger;
  Transport faulty(2, &faulty_ledger, plan);
  ShipmentLedger::StageId faulty_stage = faulty_ledger.Intern("s");
  StageResult result = faulty.ExecuteStage(0, faulty_stage, policy, site_fn);
  ASSERT_TRUE(result.complete());
  EXPECT_EQ(result.total_retries(), 0u);
  // The channel scrambled the arrival order and delivered every message
  // twice; reassembly's sequence sort and dedup must undo both.
  for (int site = 0; site < 2; ++site) {
    ASSERT_EQ(result.messages[site].size(), expected.messages[site].size());
    for (size_t i = 0; i < result.messages[site].size(); ++i) {
      EXPECT_EQ(result.messages[site][i].seq, expected.messages[site][i].seq);
      EXPECT_EQ(result.messages[site][i].payload,
                expected.messages[site][i].payload);
    }
  }
  // The ledger counts traffic, not goodput: with duplicate_prob = 1 every
  // send ships twice, so exactly double the clean byte count.
  EXPECT_EQ(faulty_ledger.StageBytes(faulty_stage),
            2 * clean_ledger.StageBytes(clean_stage));
}

TEST(TransportTest, DropsAreRecoveredByRetryDeterministically) {
  FaultPlan plan;
  plan.seed = 11;
  plan.default_fault.drop_prob = 0.25;
  StagePolicy policy;
  policy.max_attempts = 10;
  policy.hedge_local = false;
  auto site_fn = [](int site) {
    std::vector<WireMessage> msgs;
    msgs.push_back(MakeMessage(MessageType::kCandidateEstimates,
                               EncodeEstimates({static_cast<double>(site)})));
    msgs.push_back(
        MakeMessage(MessageType::kCandidateEstimates, EncodeEstimates({9.0})));
    return msgs;
  };
  auto run_once = [&]() {
    ShipmentLedger ledger;
    Transport transport(3, &ledger, plan);
    StageResult r = transport.ExecuteStage(2, ShipmentLedger::kUnaccounted,
                                           policy, site_fn);
    return std::make_pair(r.complete(), r.total_retries());
  };
  auto first = run_once();
  EXPECT_TRUE(first.first);
  EXPECT_GT(first.second, 0u);
  // The fault pattern is a pure function of the plan: fresh transports and
  // different thread interleavings replay the same outcome and retry count.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(run_once(), first);
}

// ---------------------------------------------------------------------------
// Per-site attempt loops: replay, isolation and call counts.

/// Everything one ExecuteStage run exposes, for replay comparisons.
struct StageSnapshot {
  StageResult result;
  std::vector<std::pair<std::string, size_t>> ledger;
};

StageSnapshot RunFreshStage(
    int num_sites, const FaultPlan& plan, const StagePolicy& policy,
    uint32_t stage,
    const std::function<std::vector<WireMessage>(int site)>& site_fn) {
  ShipmentLedger ledger;
  Transport transport(num_sites, &ledger, plan);
  StageSnapshot snap;
  snap.result =
      transport.ExecuteStage(stage, ledger.Intern("s"), policy, site_fn);
  snap.ledger = ledger.Breakdown();
  return snap;
}

void ExpectSameMessages(const std::vector<WireMessage>& a,
                        const std::vector<WireMessage>& b,
                        const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, b[i].seq) << context;
    EXPECT_EQ(a[i].payload, b[i].payload) << context;
  }
}

TEST(ExecuteStageTest, ReplaysIdenticallyUnderEveryFaultFamily) {
  // Per fault family (drops, duplication+reorder, a straggler hedged and
  // unhedged, a crash): two fresh transports under the same plan give the
  // same per-site reports, payloads and ledger whatever the thread
  // scheduling, and every site that is recovered delivers exactly the
  // fault-free run's payloads.
  auto site_fn = [](int site) {
    std::vector<WireMessage> msgs;
    for (uint32_t i = 0; i < 3; ++i) {
      msgs.push_back(MakeMessage(
          MessageType::kCandidateEstimates,
          EncodeEstimates({static_cast<double>(site), static_cast<double>(i)})));
    }
    return msgs;
  };
  StagePolicy clean_policy;
  clean_policy.max_attempts = 4;
  StageSnapshot clean = RunFreshStage(3, FaultPlan{}, clean_policy, 2, site_fn);
  ASSERT_TRUE(clean.result.complete());

  std::vector<FaultPlan> plans(5);
  plans[0].default_fault.drop_prob = 0.3;
  plans[1].reorder = true;
  plans[1].default_fault.duplicate_prob = 0.5;
  plans[1].default_fault.latency_mean_ms = 1.0;
  plans[2].site_overrides[1].straggler = true;
  plans[3].site_overrides[1].straggler = true;  // run unhedged below
  plans[4].site_overrides[0].crash_at_stage = 2;

  for (size_t which = 0; which < plans.size(); ++which) {
    for (uint64_t seed : {uint64_t{5}, uint64_t{23}, uint64_t{4099}}) {
      FaultPlan plan = plans[which];
      plan.seed = seed;
      StagePolicy policy;
      policy.max_attempts = 4;
      policy.hedge_local = which != 3;

      StageSnapshot first = RunFreshStage(3, plan, policy, 2, site_fn);
      StageSnapshot second = RunFreshStage(3, plan, policy, 2, site_fn);

      const std::string context =
          "plan=" + std::to_string(which) + " seed=" + std::to_string(seed);
      EXPECT_EQ(second.ledger, first.ledger) << context;
      for (int site = 0; site < 3; ++site) {
        const SiteStageReport& a = first.result.sites[site];
        const SiteStageReport& b = second.result.sites[site];
        const std::string where = context + " site=" + std::to_string(site);
        EXPECT_EQ(b.ok, a.ok) << where;
        EXPECT_EQ(b.crashed, a.crashed) << where;
        EXPECT_EQ(b.attempts, a.attempts) << where;
        EXPECT_EQ(b.hedged, a.hedged) << where;
        EXPECT_EQ(second.result.run.queue_wait_millis[site],
                  first.result.run.queue_wait_millis[site])
            << where;
        ExpectSameMessages(second.result.messages[site],
                           first.result.messages[site], where);
        if (a.ok) {
          ExpectSameMessages(first.result.messages[site],
                             clean.result.messages[site], where);
        } else {
          EXPECT_TRUE(first.result.messages[site].empty()) << where;
        }
      }
    }
  }
}

TEST(ExecuteStageTest, UnrecoveredSiteDeliversNothing) {
  // A failed site (straggler, no hedging) must deliver no messages — a
  // partial attempt's bytes leaking through would tear the caller's merge.
  FaultPlan plan;
  plan.site_overrides[1].straggler = true;
  StagePolicy policy;
  policy.max_attempts = 2;
  policy.hedge_local = false;
  StageSnapshot snap = RunFreshStage(2, plan, policy, 0, [](int site) {
    return std::vector<WireMessage>{
        MakeMessage(MessageType::kCandidateEstimates,
                    EncodeEstimates({static_cast<double>(site)}))};
  });
  EXPECT_FALSE(snap.result.complete());
  EXPECT_TRUE(snap.result.sites[0].ok);
  ASSERT_EQ(snap.result.messages[0].size(), 1u);
  EXPECT_FALSE(snap.result.sites[1].ok);
  EXPECT_TRUE(snap.result.messages[1].empty());
}

TEST(ExecuteStageTest, RunsEverySiteFunctionAtMostOnce) {
  // Retries re-ship the buffered bytes and a hedge re-delivers them, so the
  // site function runs exactly once per live site even when every attempt
  // is lost.
  FaultPlan plan;
  plan.site_overrides[2].straggler = true;
  plan.site_overrides[4].crash_at_stage = 0;
  StagePolicy policy;
  policy.max_attempts = 3;
  std::vector<std::atomic<int>> per_site(5);
  StageSnapshot snap = RunFreshStage(5, plan, policy, 0, [&](int site) {
    ++per_site[site];
    return std::vector<WireMessage>{};
  });
  EXPECT_TRUE(snap.result.complete());
  EXPECT_EQ(snap.result.sites[2].attempts, 3);
  EXPECT_TRUE(snap.result.sites[2].hedged);
  EXPECT_TRUE(snap.result.sites[4].crashed);
  EXPECT_TRUE(snap.result.sites[4].hedged);
  // The crashed site never ran remotely; its hedge ran the replica once.
  for (int s = 0; s < 5; ++s) EXPECT_EQ(per_site[s].load(), 1) << s;
  ASSERT_EQ(snap.result.run.site_millis.size(), 5u);
  EXPECT_GE(snap.result.run.max_millis, 0.0);
}

TEST(ExecuteStageTest, MaxMillisIsSlowestSite) {
  StageSnapshot snap = RunFreshStage(3, FaultPlan{}, StagePolicy{}, 0,
                                     [](int site) {
    // Site 2 does measurable work; others return immediately.
    if (site == 2) {
      volatile uint64_t x = 0;
      for (int i = 0; i < 2000000; ++i) {
        x = x + static_cast<uint64_t>(i);
      }
    }
    return std::vector<WireMessage>{};
  });
  const StageRun& run = snap.result.run;
  EXPECT_DOUBLE_EQ(run.max_millis, *std::max_element(run.site_millis.begin(),
                                                     run.site_millis.end()));
  EXPECT_GE(run.exec_millis[2], run.exec_millis[0]);
}

}  // namespace
}  // namespace gstored
