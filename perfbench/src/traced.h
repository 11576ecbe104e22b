// The traced run: per-layer numbers for one workload.
#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <cstdint>
#include <string>

#include "perfbench/src/harness.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;  // repositories and sockets; removed at exit
  std::string out_dir;   // where the traced run writes its spans (optional)
};

/// Replays a fixed sample of the workload's operations at each layer's
/// public entry point, in call order: net::Client, Session on a local
/// SessionManager, Cvd, the net table codec, Repository::LogCommit. The
/// replay below the client runs on a replica imported from the same seed.
/// Ends with the server shut down and the recovery measurements taken.
Status RunTraced(const WorkloadSpec& spec, const VersionedDataset& ds,
                 const Args& args, ServedRepo* served, Ledger* ledger,
                 Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
