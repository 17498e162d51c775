// perfbench_driver: runs one workload, checks every answer, and writes the
// raw measurements (and, when tracing, the span file) for run.py.
//
//   perfbench_driver --workload hot-wire --seed 1 --seconds 10 --trace 0
//                    --workdir DIR --out result.json [--trace-out t.json]
//                    [--tiny]
//
// Exit status: 0 when every request succeeded with a correct answer, 3 when
// any answer was wrong or any request failed, 2 on a setup error.
#include <cstring>
#include <string>
#include <thread>

#include "bench_util.h"
#include "kernels/dispatch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR --out FILE [--trace-out FILE] "
               "[--tiny]\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      return i + 1 < argc ? std::string(argv[++i]) : std::string();
    };
    if (a == "--workload") {
      opt.workload = val();
    } else if (a == "--seed") {
      opt.seed = std::stoull(val());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(val());
    } else if (a == "--trace") {
      opt.trace = val() == "1";
    } else if (a == "--workdir") {
      opt.workdir = val();
    } else if (a == "--out") {
      out = val();
    } else if (a == "--trace-out") {
      opt.trace_out = val();
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else {
      return Usage();
    }
  }
  if (opt.workload.empty() || opt.workdir.empty() || out.empty() ||
      opt.seconds <= 0 || (opt.trace && opt.trace_out.empty())) {
    return Usage();
  }

  perfbench::RawResult res;
  res.workload = opt.workload;
  res.seed = opt.seed;
  res.meta["build_type"] = PERFBENCH_BUILD_TYPE;
  res.meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  res.meta["kernel_tier"] = pathcache::kernels::TierName(
      pathcache::kernels::ActiveTier());
  res.meta["scale"] = opt.tiny ? "tiny" : "full";

  const uint64_t origin = perfbench::RunOrigin();
  perfbench::StealSampler steal;
  int rc = 0;
  if (opt.workload == "hot-wire") {
    rc = perfbench::RunHotWire(opt, &res);
  } else if (opt.workload == "scan-overflow") {
    rc = perfbench::RunScanOverflow(opt, &res);
  } else if (opt.workload == "update-mix") {
    rc = perfbench::RunUpdateMix(opt, &res);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 64;
  }
  if (rc != 0) return rc;
  res.steal = steal.Samples();
  if (opt.trace &&
      !perfbench::SpanSink::Get().WriteChromeTrace(opt.trace_out, origin)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 opt.trace_out.c_str());
    return 2;
  }
  if (!res.Write(out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out.c_str());
    return 2;
  }
  return res.wrong + res.failed == 0 ? 0 : 3;
}
