#include "slurm/aequus_plugins.hpp"

#include <optional>
#include <string>

namespace aequus::slurm {

FairshareSource aequus_fairshare_source(client::AequusClient& client) {
  return [&client](const rms::PriorityContext& context) -> double {
    // Prefer an already-known grid identity; otherwise resolve the system
    // account through the IRS.
    const std::string* grid_user = &context.job.grid_user;
    std::optional<std::string> resolved;
    if (grid_user->empty()) {
      resolved = client.resolve_identity(context.job.system_user);
      if (!resolved) return core::kNeutralFactor;  // unresolvable accounts stay neutral
      grid_user = &*resolved;
    }
    // One fetch path for every scheduler flavour: the pass's pinned
    // snapshot when the scheduler supplied one — the same values as the
    // client cache (the client publishes it), but one consistent
    // generation for the whole sweep — with the client's cached snapshot
    // as the no-provider fallback. PriorityContext::priority_of owns the
    // missing-leaf kNeutralFactor convention.
    return context.priority_of(*grid_user, client.snapshot());
  };
}

AequusJobCompPlugin::AequusJobCompPlugin(client::AequusClient& client) : client_(client) {}

void AequusJobCompPlugin::job_complete(const rms::Job& job, double now) {
  // Plugin hop of the jobcomp chain: separates time spent in the RM's
  // completion hook from the client/bus hops below it.
  obs::Tracer* tracer = client_.observability().tracer;
  obs::SpanContext span;
  if (tracer != nullptr && tracer->enabled()) {
    span = tracer->begin_span(now, client_.config().site, "slurm", "jobcomp_plugin");
  }
  obs::SpanScope scope(tracer, span);
  bool ok = false;
  if (!job.grid_user.empty()) {
    client_.report_usage(job.grid_user, job.usage());
    ok = true;
  } else {
    ok = client_.report_system_usage(job.system_user, job.usage());
  }
  if (ok) {
    ++reported_;
  } else {
    ++dropped_;
  }
  if (span.valid() && tracer != nullptr) {
    tracer->end_span(now, span, client_.config().site, "slurm", ok ? "reported" : "dropped");
  }
}

namespace {
class AequusPriorityPlugin final : public PriorityPlugin {
 public:
  AequusPriorityPlugin(client::AequusClient& client, MultifactorWeights weights)
      : inner_(weights, aequus_fairshare_source(client)) {}

  [[nodiscard]] std::string name() const override { return "priority/aequus"; }
  [[nodiscard]] double priority(const rms::PriorityContext& context) override {
    return inner_.priority(context);
  }

 private:
  MultifactorPriorityPlugin inner_;
};
}  // namespace

std::unique_ptr<PriorityPlugin> make_aequus_priority_plugin(client::AequusClient& client,
                                                            MultifactorWeights weights) {
  return std::make_unique<AequusPriorityPlugin>(client, weights);
}

}  // namespace aequus::slurm
