// Failure-trace replay driver: re-executes traces captured by chaos runs
// (chaos_sweep or the gtest harness) and verifies each rerun reproduces the
// identical checker violations.
//
//   chaos_replay [--jobs N] <trace-file>...
//
// Multiple traces replay concurrently (--jobs, default hardware
// concurrency); output is buffered per file and printed in argument order,
// so a batch invocation's output is byte-identical for any jobs value.
//
// Exit 0: deterministic reproduction of every trace. Exit 1: some replay
// diverged (a determinism bug in the simulator — itself a finding). Exit 2:
// bad usage or an unparseable trace. A batch exits with the worst per-file
// code.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "chaos/trace.h"
#include "sim/parallel.h"

int main(int argc, char** argv) {
  using namespace cowbird::chaos;
  int jobs = 0;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--jobs") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "usage: chaos_replay [--jobs N] <trace-file>...\n");
        return 2;
      }
      jobs = std::atoi(argv[++i]);
    } else {
      files.push_back(flag);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "usage: chaos_replay [--jobs N] <trace-file>...\n");
    return 2;
  }

  struct FileOutcome {
    std::string text;
    int code = 0;
  };
  std::vector<FileOutcome> outcomes(files.size());
  cowbird::sim::ParallelFor(
      jobs > 0 ? jobs : cowbird::sim::MaxParallelism(),
      static_cast<int>(files.size()), [&](int i) {
        const auto index = static_cast<std::size_t>(i);
        FileOutcome& out = outcomes[index];
        const auto trace = ReadTraceFile(files[index]);
        if (!trace.has_value()) {
          out.text =
              "chaos_replay: cannot parse " + files[index] + "\n";
          out.code = 2;
          return;
        }
        char head[256];
        std::snprintf(head, sizeof(head),
                      "replaying engine=%s seed=%llu break_fence=%d (%zu "
                      "recorded violations)\n",
                      EngineKindName(trace->options.engine),
                      static_cast<unsigned long long>(trace->options.seed),
                      trace->options.break_fence ? 1 : 0,
                      trace->violations.size());
        out.text += head;
        const ReplayOutcome outcome = ReplayTrace(*trace);
        if (!outcome.deterministic) {
          out.text += "REPLAY DIVERGED\n" + outcome.mismatch + "\n";
          out.code = 1;
          return;
        }
        char tail[128];
        std::snprintf(tail, sizeof(tail),
                      "deterministic: %zu violations reproduced\n",
                      outcome.result.violations.size());
        out.text += tail;
        for (const Violation& v : outcome.result.violations) {
          out.text += "  " + v.Format() + "\n";
        }
      });

  int worst = 0;
  for (const FileOutcome& out : outcomes) {
    std::fputs(out.text.c_str(), stdout);
    worst = std::max(worst, out.code);
  }
  return worst;
}
