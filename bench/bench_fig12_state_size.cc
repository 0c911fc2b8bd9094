// Figure 12: throughput of a single elastic executor scaling out under
// different shard state sizes, at ω = 2 (left) and ω = 16 (right). Paper
// shape: scaling is unaffected up to multi-MB shard state; at 32 MB shards
// the state migration triggered by load-balancing against shuffles becomes
// the bottleneck, and the effect sharpens at ω = 16.
#include "harness/experiment.h"
#include "harness/single_executor.h"

using namespace elasticutor;
using namespace elasticutor::bench;

namespace {
const int kCores[] = {1, 4, 8, 16, 32, 64, 128, 256};

MicroOptions Base(double omega) {
  MicroOptions options;
  options.zipf_skew = 0.2;
  options.shards_per_executor = 256;  // Fewer, bigger shards: state matters.
  options.generator_executors = 32;
  options.gen_overhead_ns = Micros(1);
  options.shuffles_per_minute = omega;
  return options;
}

void Sweep(double omega) {
  std::printf("\nthroughput (tuples/s) at ω = %.0f\n", omega);
  TablePrinter table({"omega", "cores", "32KB", "1MB", "8MB", "32MB"});
  table.PrintHeader();
  for (int cores : kCores) {
    std::vector<std::string> row{Fmt(omega, 0), FmtInt(cores)};
    for (int64_t bytes : {32 * kKiB, 1 * kMiB, 8 * kMiB, 32 * kMiB}) {
      MicroOptions options = Base(omega);
      options.shard_state_bytes = bytes;
      auto r = RunSingleExecutor(options, cores, Scaled(Seconds(4)),
                                 Scaled(Seconds(8)));
      row.push_back(Fmt(r.throughput_tps, 0));
    }
    table.PrintRow(row);
  }
}
}  // namespace

int main(int argc, char** argv) {
  BenchInit(argc, argv);
  Banner("Figure 12",
         "single-executor scale-out vs shard state size, ω = 2 and 16");
  Sweep(2.0);
  Sweep(16.0);
  std::printf("\npaper: 32 MB shard state prevents efficient use of remote "
              "cores; higher ω needs more migration and degrades further\n");
  return 0;
}
