#include "select/selection_driver.hpp"

#include <memory>
#include <string_view>
#include <vector>

#include "cg/csr_view.hpp"
#include "spec/parser.hpp"
#include "support/timer.hpp"

namespace capi::select {

SelectionReport runSelection(const cg::CallGraph& graph,
                             const SelectionOptions& options) {
    support::Timer timer;

    spec::SpecAst ast = options.resolver != nullptr
                            ? spec::parseSpec(options.specText, *options.resolver)
                            : spec::parseSpec(options.specText);
    Pipeline pipeline(ast);
    PipelineRun run =
        pipeline.run(graph, {.pool = options.pool, .cache = options.cache});

    SelectionReport report;
    report.graphNodes = graph.size();

    // The snapshot the pipeline and compensation share carries the has-body
    // mask and the name arena, so no step below reads every FunctionDesc.
    std::shared_ptr<const cg::CsrView> csr = cg::CsrView::snapshot(graph);
    FunctionSet selection = run.result;
    if (options.definedOnly) {
        selection.bits() &= csr->definedMask();
    }
    report.selectedPre = selection.count();

    if (options.applyInlineCompensation && options.symbolOracle != nullptr) {
        InlineCompensationStats stats = compensateInlining(
            graph, selection, *options.symbolOracle, options.inlineCache);
        report.added = stats.callersAdded;
        report.inlineCompensationReused = stats.reused;
    }
    report.selectedFinal = selection.count();

    report.ic.specName = options.specName;
    std::vector<std::string_view> names;
    names.reserve(report.selectedFinal);
    selection.forEach([&](cg::FunctionId id) { names.push_back(csr->name(id)); });
    report.ic.setFunctions(std::move(names));

    report.pipelineRun = std::move(run);
    report.selectionSeconds = timer.elapsedSec();
    return report;
}

}  // namespace capi::select
