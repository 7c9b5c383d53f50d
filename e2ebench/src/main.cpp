// e2ebench: the repository's end-to-end benchmark program.
//
//   e2ebench --workload mt_stream|mlp_serve|mt_beam --seed N --seconds S
//            --trace 0|1
//   e2ebench --list-metrics
//
// Prints the run manifest and human-readable notes (every percentile with
// its sample count), then, as the last stdout line, one JSON object with
// exactly {correct, attempted, failed, metrics}: the end-to-end metrics
// for --trace 0, the per-layer metrics for --trace 1. The same record plus
// the manifest is written to E2EBENCH_OUT_DIR (default ./e2ebench-out),
// next to the traced run's Chrome trace.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common.hpp"
#include "src/kernels/backend.hpp"
#include "src/util/parallel.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace e2e;
  Args args;
  try {
    args = parse_args(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr,
                 "e2ebench: %s\nusage: e2ebench --workload "
                 "mt_stream|mlp_serve|mt_beam --seed N --seconds S "
                 "--trace 0|1\n",
                 e.what());
    return 2;
  }
  if (args.list_metrics) {
    for (const MetricSpec& m : end_to_end_metrics()) {
      std::printf("end_to_end %s %s\n", m.name, m.unit);
    }
    for (const MetricSpec& m : per_layer_metrics()) {
      std::printf("per_layer %s %s\n", m.name, m.unit);
    }
    return 0;
  }

  const char* env_out = std::getenv("E2EBENCH_OUT_DIR");
  const std::string out_dir =
      env_out != nullptr && *env_out != '\0' ? env_out : "e2ebench-out";
  std::filesystem::create_directories(out_dir);

  // Serving workers run serial-pinned; keep the shared pool single-threaded
  // so the process stays within one client + two workers + the watchdog.
  const bool serving = args.workload != "mt_beam";
  if (serving) af::set_num_threads(1);

  Result res;
  const CpuTimes cpu0 = cpu_times();
  try {
    if (args.workload == "mt_stream") {
      res = run_mt_stream(args, out_dir);
    } else if (args.workload == "mlp_serve") {
      res = run_mlp_serve(args, out_dir);
    } else {
      res = run_mt_beam(args, out_dir);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  res.note("host steal: " +
           fmt_num(100.0 * steal_share(cpu0, cpu_times())) +
           "% of machine CPU time during the run (the noise a shared VM "
           "adds; compare runs with similar steal)");

  const std::string manifest =
      manifest_json(args, af::active_backend().name, 1,
                    serving ? kServerWorkers : 0,
                    serving ? 1 : kBeamThreads);
  const std::string line =
      args.trace ? result_line(res, per_layer_metrics(), true)
                 : result_line(res, end_to_end_metrics(), false);
  std::printf("%s\n", manifest.c_str());
  for (const std::string& n : res.notes) std::printf("# %s\n", n.c_str());

  const std::string record = out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0") + ".result.txt";
  std::ofstream rec(record);
  rec << manifest << "\n";
  for (const std::string& n : res.notes) rec << "# " << n << "\n";
  rec << line << "\n";

  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}
