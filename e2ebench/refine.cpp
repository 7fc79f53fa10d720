// Refine phase: the paper's runtime-adaptable refinement loop, closed (one
// user waits for every step).
//
// Each session loads the MetaCG JSON written at set-up, runs the four paper
// specs cold, starts DynCapi on the mpi IC (Tinit), then runs refinement
// steps in a seeded order: RefinementSession::select on a paper spec or a
// kernels variant with other flops/loopDepth thresholds, followed by
// DynCapi::applyIcDelta. Nothing executes, so the probe path is idle.
//
// A session is a sequence of small units (the load, one cold pass, one init,
// a block of steps) that runPhases() interleaves with the other phases. The
// repeated cold passes and inits are spread among the step blocks, so their
// samples cover the whole session instead of one burst at its start.
//
// While the tracer records, the same work runs split into the layer calls the
// aggregate functions make (read + JSON parse + from_json for the load;
// parse + CSR snapshot + pipeline + inline compensation for a selection).
// Untraced sessions of the traced run take the aggregate path, as the
// untraced run does, so the on/off comparison includes the split.
#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "apps/specs.hpp"
#include "binsim/process.hpp"
#include "cg/csr_view.hpp"
#include "cg/metacg_json.hpp"
#include "dyncapi/dyncapi.hpp"
#include "dyncapi/process_symbol_oracle.hpp"
#include "dyncapi/refinement.hpp"
#include "harness.hpp"
#include "select/inline_compensation.hpp"
#include "select/pipeline.hpp"
#include "select/selection_driver.hpp"
#include "spec/parser.hpp"
#include "support/rng.hpp"

namespace e2e {

using namespace capi;

namespace {

using Scope = Tracer::Scope;

struct StepSpec {
    std::string name;
    std::string text;
};

std::string kernelsVariant(std::uint64_t flops, std::uint64_t depth, bool coarse) {
    std::ostringstream text;
    text << "excluded = join(inSystemHeader(%%), inlineSpecified(%%))\n"
         << "kernels_raw = flops(\">=\", " << flops << ", loopDepth(\">=\", "
         << depth << ", %%))\n";
    if (coarse) {
        text << "kernels_sel = subtract(onCallPathTo(%kernels_raw), %excluded)\n"
             << "coarse(%kernels_sel, join(%kernels_raw, callers(%kernels_raw)))\n";
    } else {
        text << "subtract(onCallPathTo(%kernels_raw), %excluded)\n";
    }
    return text.str();
}

/// Seeded refinement steps. Every session runs the same mix in a seeded
/// order: the four paper specs again, then a kernels variant for every
/// flops/loopDepth threshold pair a user would try (flops >= 5..30 in steps
/// of 5, loopDepth >= 1..2), half of them with the coarse selector. A fixed
/// mix keeps the step-cost distribution the same across seeds.
class StepGenerator {
public:
    explicit StepGenerator(std::uint64_t seed) : rng_(seed ^ 0x5eed5eedULL) {}

    std::vector<StepSpec> session() {
        std::vector<StepSpec> steps;
        for (const apps::NamedSpec& spec : apps::evaluationSpecs()) {
            steps.push_back({spec.name, spec.text});
        }
        for (std::uint64_t flops = 5; flops <= 30; flops += 5) {
            for (std::uint64_t depth = 1; depth <= 2; ++depth) {
                const bool coarse = (flops / 5 + depth + sessions_) % 2 == 0;
                steps.push_back({std::string(coarse ? "kernels coarse" : "kernels") +
                                     " flops>=" + std::to_string(flops) +
                                     " depth>=" + std::to_string(depth),
                                 kernelsVariant(flops, depth, coarse)});
            }
        }
        ++sessions_;
        for (std::size_t i = steps.size() - 1; i > 0; --i) {
            std::swap(steps[i], steps[rng_.nextBelow(i + 1)]);
        }
        return steps;
    }

private:
    support::SplitMix64 rng_;
    std::uint64_t sessions_ = 0;
};

bool sameGraph(const cg::CallGraph& a, const cg::CallGraph& b) {
    if (a.size() != b.size() || a.edgeCount() != b.edgeCount()) return false;
    auto calleeNames = [](const cg::CallGraph& g, cg::FunctionId id) {
        std::vector<std::string> names;
        for (cg::FunctionId callee : g.callees(id)) names.push_back(g.name(callee));
        std::sort(names.begin(), names.end());
        return names;
    };
    for (cg::FunctionId id = 0; id < a.size(); ++id) {
        const cg::FunctionId other = b.lookup(a.name(id));
        if (other == cg::kInvalidFunction) return false;
        if (calleeNames(a, id) != calleeNames(b, other)) return false;
    }
    return true;
}

/// The live patch set equals the IC entries that have a patchable sled.
bool patchedMatches(dyncapi::DynCapi& dyn, const select::InstrumentationConfig& ic) {
    std::vector<xray::PackedId> expected;
    for (const std::string& name : ic.functions) {
        if (auto id = dyn.resolveName(name)) expected.push_back(*id);
    }
    std::vector<xray::PackedId> live = dyn.process().xray().patchedFunctions();
    std::sort(expected.begin(), expected.end());
    std::sort(live.begin(), live.end());
    return live == expected;
}

class RefinePhase final : public Phase {
public:
    RefinePhase(Context& ctx, const SetupProducts& products)
        : ctx_(ctx),
          products_(products),
          resolver_(apps::bundledResolver()),
          references_(products.refine.size()),
          steps_(ctx.seed) {
        for (const RefineInput& input : products.refine) {
            oracles_.push_back(std::make_unique<dyncapi::ProcessSymbolOracle>(input.compiled));
        }
    }

    /// One unit of the current session, or the load that starts the next.
    /// Small units let runPhases() interleave, so one slow stretch of the
    /// machine cannot land on a whole session's samples of one metric.
    void iterate(std::uint64_t id) override;
    /// One whole session per generated input.
    std::uint64_t minIterations() const override {
        return products_.refine.size() * (1 + ctx_.plan.coldPasses + ctx_.plan.initPasses +
                                           (kSessionSteps + kStepsPerUnit - 1) / kStepsPerUnit);
    }

private:
    enum class Unit { Cold, Init, Steps };

    /// One user's refinement session, from JSON load to its last step.
    struct Session {
        std::uint64_t id = 0;
        std::size_t input = 0;  ///< Index into SetupProducts::refine.
        std::unique_ptr<cg::CallGraph> graph;
        std::unique_ptr<binsim::Process> process;
        std::unique_ptr<dyncapi::DynCapi> dyn;
        std::unique_ptr<dyncapi::RefinementSession> refinement;
        StepSpec mpiSpec;
        select::InstrumentationConfig mpiIc;  ///< From the first cold pass.
        std::vector<StepSpec> steps;
        std::size_t nextStep = 0;
        std::vector<Unit> units;  ///< What the session runs after its load.
        std::size_t nextUnit = 0;
        std::size_t coldPasses = 0;
        std::size_t initPasses = 0;
        double timedSeconds = 0.0;  ///< For the traced run's on/off comparison.
    };
    static constexpr std::size_t kStepsPerUnit = 4;
    /// The four paper specs plus twelve kernels variants (StepGenerator).
    static constexpr std::size_t kSessionSteps = 16;

    void startSession(std::uint64_t id);
    void coldPass();
    void initPass();
    void runSteps();
    /// The first cold pass and the first init come first, since init applies
    /// the cold mpi IC and the steps patch the process init left behind; the
    /// other passes are spread evenly among the step blocks.
    std::vector<Unit> sessionUnits() const;
    /// Times one closed-loop unit (a root span) into `metric`.
    template <class Work>
    void measure(const char* metric, const char* span, std::uint64_t step, Work&& work);
    cg::CallGraph load(std::uint64_t id);
    select::InstrumentationConfig coldSelect(const cg::CallGraph& graph,
                                             const std::string& name,
                                             const std::string& text,
                                             std::uint64_t id);
    /// Cold runSelection IC of `spec` on the session's set-up graph: the
    /// reference every selection of the session must reproduce.
    const std::vector<std::string>& reference(const StepSpec& spec);
    select::SelectionOptions baseOptions() const;
    const RefineInput& input() const { return products_.refine[current_.input]; }
    dyncapi::ProcessSymbolOracle& oracle() const { return *oracles_[current_.input]; }

    Context& ctx_;
    const SetupProducts& products_;
    spec::ModuleResolver resolver_;
    std::vector<std::unique_ptr<dyncapi::ProcessSymbolOracle>> oracles_;  ///< Per input.
    /// Per input: spec text -> reference IC.
    std::vector<std::map<std::string, std::vector<std::string>>> references_;
    StepGenerator steps_;
    std::uint64_t sessions_ = 0;
    std::uint64_t stepId_ = 0;
    Session current_;
};

cg::CallGraph RefinePhase::load(std::uint64_t id) {
    if (!ctx_.tracer.enabled()) return cg::readMetaCgFile(input().jsonPath);
    std::string text;
    {
        Scope s(ctx_.tracer, "cg.read_file", id);
        std::ifstream in(input().jsonPath);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        text = buffer.str();
    }
    support::Json doc;
    {
        Scope s(ctx_.tracer, "support.json_parse", id);
        doc = support::Json::parse(text);
    }
    cg::CallGraph graph;
    {
        Scope s(ctx_.tracer, "cg.from_json", id);
        graph = cg::fromMetaCgJson(doc);
    }
    Scope s(ctx_.tracer, "support.json_free", id);
    doc = support::Json();
    return graph;
}

select::InstrumentationConfig RefinePhase::coldSelect(const cg::CallGraph& graph,
                                                       const std::string& name,
                                                       const std::string& text,
                                                       std::uint64_t id) {
    if (!ctx_.tracer.enabled()) {
        select::SelectionOptions options = baseOptions();
        options.specText = text;
        options.specName = name;
        return select::runSelection(graph, options).ic;
    }
    // runSelection's steps, one span per layer call.
    spec::SpecAst ast;
    {
        Scope s(ctx_.tracer, "spec.parse", id);
        ast = spec::parseSpec(text, resolver_);
    }
    std::shared_ptr<const cg::CsrView> csr;
    {
        Scope s(ctx_.tracer, "cg.csr_snapshot", id);
        csr = cg::CsrView::snapshot(graph);
    }
    select::PipelineRun run;
    {
        Scope s(ctx_.tracer, "select.pipeline", id);
        run = select::Pipeline(ast).run(graph);
    }
    select::FunctionSet selection = run.result;
    {
        Scope s(ctx_.tracer, "select.inline_comp", id);
        select::FunctionSet defined(graph.size());
        for (cg::FunctionId fn = 0; fn < graph.size(); ++fn) {
            if (graph.desc(fn).flags.hasBody) defined.add(fn);
        }
        selection &= defined;
        select::compensateInlining(graph, selection, oracle());
    }
    select::InstrumentationConfig ic;
    ic.specName = name;
    selection.forEach([&](cg::FunctionId fn) { ic.addFunction(graph.name(fn)); });
    return ic;
}

const std::vector<std::string>& RefinePhase::reference(const StepSpec& spec) {
    std::map<std::string, std::vector<std::string>>& references = references_[current_.input];
    auto it = references.find(spec.text);
    if (it != references.end()) return it->second;
    select::SelectionOptions options = baseOptions();
    options.specText = spec.text;
    options.specName = spec.name;
    return references[spec.text] =
               select::runSelection(input().graph, options).ic.functions;
}

select::SelectionOptions RefinePhase::baseOptions() const {
    select::SelectionOptions base;
    base.resolver = &resolver_;
    base.symbolOracle = &oracle();
    return base;
}

template <class Work>
void RefinePhase::measure(const char* metric, const char* span, std::uint64_t step,
                          Work&& work) {
    const std::uint64_t start = nowNs();
    {
        Scope root(ctx_.tracer, span, step);
        work();
    }
    const double seconds = secondsSince(start);
    current_.timedSeconds += seconds;
    ctx_.sample(metric, seconds);
}

void RefinePhase::iterate(std::uint64_t) {
    if (current_.nextUnit == current_.units.size()) {
        startSession(sessions_++);
        return;
    }
    // The traced run alternates tracing on and off per session.
    ctx_.tracer.setEnabled(ctx_.traced && current_.id % 2 == 0);
    switch (current_.units[current_.nextUnit++]) {
        case Unit::Cold: coldPass(); break;
        case Unit::Init: initPass(); break;
        case Unit::Steps: runSteps(); break;
    }
    if (current_.nextUnit == current_.units.size()) {
        ctx_.sample(ctx_.tracer.enabled() ? "trace_on.refine_s" : "trace_off.refine_s",
                    current_.timedSeconds);
    }
}

std::vector<RefinePhase::Unit> RefinePhase::sessionUnits() const {
    const std::size_t blocks = (current_.steps.size() + kStepsPerUnit - 1) / kStepsPerUnit;
    // Each remaining unit sits at the middle of its equal share of the
    // session; a stable sort by position interleaves the three kinds.
    std::vector<std::pair<double, Unit>> placed;
    auto spread = [&](Unit unit, std::size_t count) {
        for (std::size_t i = 0; i < count; ++i) {
            placed.push_back({(static_cast<double>(i) + 0.5) / static_cast<double>(count), unit});
        }
    };
    spread(Unit::Steps, blocks);
    spread(Unit::Cold, ctx_.plan.coldPasses - 1);
    spread(Unit::Init, ctx_.plan.initPasses - 1);
    std::stable_sort(placed.begin(), placed.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<Unit> units = {Unit::Cold, Unit::Init};
    for (const auto& [position, unit] : placed) units.push_back(unit);
    return units;
}

void RefinePhase::startSession(std::uint64_t id) {
    // Tear down in dependency order: the refinement session reads the graph
    // and DynCapi patches the process.
    current_.refinement.reset();
    current_.dyn.reset();
    current_ = Session{};
    current_.id = id;
    // Sessions rotate over the generated graphs.
    current_.input = id % products_.refine.size();
    ctx_.tracer.setEnabled(ctx_.traced && id % 2 == 0);

    measure("cg_load_s", "e2e.refine_load", id, [&] {
        current_.graph = std::make_unique<cg::CallGraph>(load(id));
    });
    ctx_.checks.expect(sameGraph(input().graph, *current_.graph),
                       "refine: graph loaded from JSON differs from the built graph");
    current_.steps = steps_.session();
    current_.units = sessionUnits();
}

void RefinePhase::coldPass() {
    // One cold pass takes tens of milliseconds against a load of over a
    // second, so a session times several. Passes after the first run on an
    // untimed copy of the graph: a copy has a fresh identity, so no CSR
    // snapshot of an earlier pass is shared and every pass starts cold.
    std::optional<cg::CallGraph> copy;
    if (current_.coldPasses++ > 0) copy.emplace(*current_.graph);
    const cg::CallGraph& target = copy ? *copy : *current_.graph;
    std::vector<std::pair<StepSpec, select::InstrumentationConfig>> cold;
    measure("select_cold_s", "e2e.refine_cold", current_.id, [&] {
        for (const apps::NamedSpec& spec : apps::evaluationSpecs()) {
            cold.push_back({{spec.name, spec.text},
                            coldSelect(target, spec.name, spec.text, current_.id)});
        }
    });
    for (const auto& [spec, ic] : cold) {
        ctx_.checks.expect(ic.functions == reference(spec),
                           "refine: cold '" + spec.name + "' IC differs from reference");
    }
    if (current_.coldPasses == 1) {
        current_.mpiSpec = cold.front().first;
        current_.mpiIc = cold.front().second;
    }
}

void RefinePhase::initPass() {
    // Every init runs on a fresh, untimed process image. The session keeps
    // the first; later ones are measured and dropped, so the patch state the
    // steps build on stays the session's own.
    auto process = std::make_unique<binsim::Process>(input().compiled);
    std::unique_ptr<dyncapi::DynCapi> dyn;
    measure("init_s", "e2e.refine_init", current_.id, [&] {
        {
            Scope s(ctx_.tracer, "dyncapi.resolve", current_.id);
            dyn = std::make_unique<dyncapi::DynCapi>(*process);
        }
        Scope s(ctx_.tracer, "dyncapi.apply_ic", current_.id);
        dyn->applyIc(current_.mpiIc);
    });
    ctx_.checks.expect(patchedMatches(*dyn, current_.mpiIc),
                       "refine: patch set after applyIc differs from the mpi IC");
    if (current_.initPasses++ > 0) return;
    current_.process = std::move(process);
    current_.dyn = std::move(dyn);
    // The user's session starts from the IC init applied; that first,
    // cache-cold selection is the session's set-up, not a refinement step.
    current_.refinement = std::make_unique<dyncapi::RefinementSession>(*current_.graph);
    current_.refinement->select(current_.mpiSpec.text, current_.mpiSpec.name, baseOptions());
}

void RefinePhase::runSteps() {
    const select::SelectionOptions base = baseOptions();
    double hits = 0.0, stages = 0.0, pages = 0.0, flipped = 0.0;
    const std::size_t first = current_.nextStep;
    const std::size_t end = std::min(first + kStepsPerUnit, current_.steps.size());
    for (; current_.nextStep < end; ++current_.nextStep) {
        const StepSpec& spec = current_.steps[current_.nextStep];
        const std::uint64_t step = stepId_++;
        select::SelectionReport report;
        dyncapi::DeltaStats delta;
        measure("refine_step_s", "e2e.refine_step", step, [&] {
            {
                Scope s(ctx_.tracer, "select.session_select", step);
                report = current_.refinement->select(spec.text, spec.name, base);
            }
            Scope s(ctx_.tracer, "dyncapi.apply_delta", step);
            delta = current_.dyn->applyIcDelta(report.ic);
        });
        ctx_.checks.expect(report.ic.functions == reference(spec),
                           "refine: session IC for '" + spec.name +
                               "' differs from a cold selection");
        ctx_.checks.expect(patchedMatches(*current_.dyn, report.ic),
                           "refine: patch set after applyIcDelta differs from the IC");
        hits += static_cast<double>(report.pipelineRun.cacheHits);
        stages += static_cast<double>(report.pipelineRun.timingsNs.size());
        pages += static_cast<double>(delta.pagesTouched);
        flipped += static_cast<double>(delta.functionsPatched + delta.functionsUnpatched);
    }
    ctx_.sample("refine_cache_hits", hits);
    ctx_.sample("refine_cache_stages", stages);
    ctx_.sample("refine_pages_touched", pages);
    ctx_.sample("refine_functions_flipped", flipped);
    ctx_.sample("refine_steps", static_cast<double>(end - first));
}

}  // namespace

std::unique_ptr<Phase> makeRefinePhase(Context& ctx, const SetupProducts& products) {
    return std::make_unique<RefinePhase>(ctx, products);
}

}  // namespace e2e
