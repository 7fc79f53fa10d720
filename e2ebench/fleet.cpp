// Fleet phase: headless FleetClients stream seeded per-epoch profiles to one
// Aggregator over one session that lasts the whole run, driven on one thread
// as `capi_tool fleet` does.
//
// The loop is epochal and closed: every client sends (lossless, blocking
// sends, the aggregator pumped after each), the aggregator closes the epoch,
// and every client adopts the new policy before the next epoch starts.
// Profiles are generated before the epoch's timer starts; the generator's
// cost is reported apart from the epoch latency. The first epoch ships every
// region; later epochs touch a seeded 5% of them per client, the churn a
// steady-state fleet sends.
#include <map>
#include <memory>

#include "adapt/controller.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/client.hpp"
#include "harness.hpp"
#include "scorepsim/measurement.hpp"
#include "scorepsim/profile.hpp"
#include "support/rng.hpp"

namespace e2e {

using namespace capi;

namespace {

using Scope = Tracer::Scope;

constexpr double kChurnFraction = 0.05;

class FleetPhase final : public Phase {
public:
    FleetPhase(Context& ctx, const SetupProducts& products);
    void iterate(std::uint64_t id) override;
    /// A baseline epoch plus enough churn epochs for a tail with ten
    /// samples beyond it.
    std::uint64_t minIterations() const override { return 16; }
    void finish() override;

private:
    void generate(std::uint64_t epoch, std::vector<scorep::ProfileTree>& profiles);

    Context& ctx_;
    const SetupProducts& products_;
    std::unique_ptr<fleet::Aggregator> aggregator_;
    std::vector<std::unique_ptr<scorep::Measurement>> measurements_;
    std::vector<std::unique_ptr<fleet::FleetClient>> clients_;
    support::SplitMix64 rng_;
    std::map<std::string, scorep::ProfileTree::RegionTotals> shipped_;
    bool stuck_ = false;
};

FleetPhase::FleetPhase(Context& ctx, const SetupProducts& products)
    : ctx_(ctx), products_(products), rng_(ctx.seed * 0x9E3779B97F4A7C15ULL) {
    fleet::AggregatorOptions options;
    options.config.budgetFraction = 0.05;
    options.config.perEventCostNs = 200.0;
    // Headroom for one frame per client: the single thread pumps after
    // every send, so a blocking send never waits on a pump.
    options.dataQueueCapacity = ctx.plan.fleetClients + 8;
    const ExecInput& model = products.exec.front();
    aggregator_ = std::make_unique<fleet::Aggregator>(model.graph, model.surveyIc, options);
    fleet::FleetClientOptions clientOptions;
    clientOptions.blockingSend = true;
    for (std::size_t i = 0; i < ctx.plan.fleetClients; ++i) {
        measurements_.push_back(std::make_unique<scorep::Measurement>());
        clients_.push_back(std::make_unique<fleet::FleetClient>(*aggregator_, clientOptions));
    }
}

void FleetPhase::generate(std::uint64_t epoch, std::vector<scorep::ProfileTree>& profiles) {
    Scope s(ctx_.tracer, "gen.fleet_profiles", epoch);
    for (std::size_t i = 0; i < clients_.size(); ++i) {
        scorep::Measurement& measurement = *measurements_[i];
        scorep::ProfileTree& profile = profiles[i];
        for (const std::string& region : products_.fleetRegions) {
            if (epoch > 0 && !rng_.nextBool(kChurnFraction)) continue;
            const std::uint64_t visits = 1 + rng_.nextBelow(97);
            const std::uint64_t ns = 10'000 + rng_.nextBelow(100'000);
            const std::size_t node =
                profile.childOf(profile.root(), measurement.defineRegion(region));
            profile.node(node).visits += visits;
            profile.node(node).inclusiveNs += ns;
            shipped_[region].visits += visits;
            shipped_[region].exclusiveNs += ns;
        }
    }
}

void FleetPhase::iterate(std::uint64_t epoch) {
    if (stuck_) return;
    // The traced run alternates tracing on and off per epoch.
    ctx_.tracer.setEnabled(ctx_.traced && epoch % 2 == 0);
    std::vector<scorep::ProfileTree> profiles(clients_.size());
    generate(epoch, profiles);

    const std::uint64_t start = nowNs();
    {
        Scope root(ctx_.tracer, "e2e.fleet_epoch", epoch);
        for (std::size_t i = 0; i < clients_.size(); ++i) {
            {
                Scope s(ctx_.tracer, "fleet.send", epoch);
                clients_[i]->sendEpoch(profiles[i], *measurements_[i],
                                       1e9 + 1e6 * static_cast<double>(i));
            }
            Scope s(ctx_.tracer, "fleet.pump", epoch);
            aggregator_->pump();
        }
        while (!stuck_ && aggregator_->epochsCompleted() <= epoch) {
            Scope s(ctx_.tracer, "fleet.pump", epoch);
            stuck_ = !aggregator_->pump();
        }
        if (!stuck_) {
            for (auto& client : clients_) {
                Scope s(ctx_.tracer, "fleet.await", epoch);
                client->awaitPolicy();
            }
        }
    }
    const double seconds = secondsSince(start);
    ctx_.checks.expect(!stuck_, "fleet: aggregator did not close the epoch");
    if (stuck_) return;
    // The first epoch ships every region and registers every client; the
    // steady state the latency metrics describe is the churn epochs.
    ctx_.sample(epoch == 0 ? "fleet_baseline_epoch_s" : "fleet_epoch_s", seconds);
    if (epoch > 0) {
        ctx_.sample(ctx_.tracer.enabled() ? "trace_on.fleet_s" : "trace_off.fleet_s",
                    seconds);
    }
    for (const auto& client : clients_) {
        ctx_.checks.expect(client->policyFingerprint() == aggregator_->convergedFingerprint(),
                           "fleet: client does not hold the converged policy");
    }
}

void FleetPhase::finish() {
    const std::map<std::string, scorep::ProfileTree::RegionTotals> totals =
        aggregator_->totalsByName();
    bool totalsMatch = totals.size() == shipped_.size();
    for (auto it = totals.begin(); totalsMatch && it != totals.end(); ++it) {
        auto expected = shipped_.find(it->first);
        totalsMatch = expected != shipped_.end() &&
                      expected->second.visits == it->second.visits &&
                      expected->second.exclusiveNs == it->second.exclusiveNs;
    }
    ctx_.checks.expect(totalsMatch, "fleet: merged totals differ from what was shipped");
    const fleet::AggregatorStats stats = aggregator_->stats();
    std::uint64_t drops = 0;
    for (const auto& client : clients_) drops += client->stats().droppedDeltas;
    ctx_.checks.expect(stats.decodeErrors == 0 && stats.divergentClients == 0 && drops == 0,
                       "fleet: decode errors, divergent clients or drops");
    ctx_.count("fleet_bytes_in", static_cast<double>(stats.bytesIn));
    ctx_.count("fleet_frames_merged", static_cast<double>(stats.framesMerged));
    ctx_.count("fleet_bytes_out", static_cast<double>(stats.bytesOut));
    ctx_.count("fleet_policy_frames", static_cast<double>(stats.policyFramesSent));
}

}  // namespace

std::unique_ptr<Phase> makeFleetPhase(Context& ctx, const SetupProducts& products) {
    return std::make_unique<FleetPhase>(ctx, products);
}

}  // namespace e2e
