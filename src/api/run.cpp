#include "api/run.hpp"

#include "api/registry.hpp"

namespace agar::api {

client::StrategyFactory make_strategy_factory(const ExperimentSpec& spec) {
  spec.validate();
  auto [name, effective] = resolve_system(spec.system, spec.params);
  return [name = std::move(name), params = std::move(effective)](
             const client::ExperimentConfig& config,
             client::Deployment& deployment, RegionId region,
             sim::EventLoop* loop) {
    client::ClientContext client;
    client.backend = &deployment.backend();
    client.network = &deployment.network_for(region);
    client.codec = deployment.codec_override_for(region);
    client.loop = loop;
    client.region = region;
    client.decode_ms_per_mb = config.decode_ms_per_mb;
    client.verify_data = config.verify_data;
    // The "none" factory returns null: the coordinator keeps the
    // raw-network wire path and results stay byte-identical to a build
    // without the knob.
    FetchPolicyContext fetch_ctx;
    fetch_ctx.network = client.network;
    // Per-(run, region) jitter stream: the deployment carries the run's
    // seed, the region offsets it — shard packing cannot change draws.
    fetch_ctx.seed = deployment.config().seed +
                     0x9E3779B97F4A7C15ULL * (region + 1) + 0xF7C4;
    client.fetch_policy = FetchPolicyRegistry::instance().create(
        config.fetch_policy, fetch_ctx, config.fetch_params);

    StrategyContext context;
    context.client = &client;
    context.experiment = &config;
    return StrategyRegistry::instance().create(name, context, params);
  };
}

RunReport run(const ExperimentSpec& spec) {
  const client::StrategyFactory factory = make_strategy_factory(spec);
  return RunReport{
      spec, client::run_experiment(spec.experiment, factory, spec.label())};
}

std::vector<RunReport> run_all(const std::vector<ExperimentSpec>& specs) {
  std::vector<RunReport> reports;
  reports.reserve(specs.size());
  for (const auto& spec : specs) reports.push_back(run(spec));
  return reports;
}

std::vector<client::ExperimentResult> results_of(
    const std::vector<RunReport>& reports) {
  std::vector<client::ExperimentResult> out;
  out.reserve(reports.size());
  for (const auto& report : reports) out.push_back(report.result);
  return out;
}

}  // namespace agar::api
