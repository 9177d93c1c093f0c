#include "workloads.h"

namespace perfbench {

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "campaign_mixed") {
    return MakeCampaignWorkload(options, false);
  }
  if (options.workload == "campaign_light") {
    return MakeCampaignWorkload(options, true);
  }
  if (options.workload == "reschedule_drift") {
    return MakeDriftWorkload(options);
  }
  if (options.workload == "serve_fleet") return MakeServeWorkload(options);
  return nullptr;
}

}  // namespace perfbench
