// Load generator for the daemon workloads: one process, one connection,
// one spectrum per request, the way a real-time search submits each scan as
// it is acquired.
#pragma once

#include <cstddef>
#include <vector>

#include "chem/spectrum.hpp"
#include "serve/client.hpp"

namespace lbe::benchmark {

struct StepResult {
  double offered_sps = 0.0;
  double achieved_sps = 0.0;  ///< answered / (last answer - first due time)
  std::size_t sent = 0;
  std::size_t answered = 0;
  std::size_t rejected = 0;
  /// Per answered request, milliseconds from its due time to its answer.
  std::vector<double> latency_ms;
  /// Per sent request, milliseconds the sender ran behind its schedule.
  std::vector<double> late_ms;
  /// Per request, in send order; empty for rejected requests.
  std::vector<serve::SearchResponse> responses;
};

/// Open loop at `rate` spectra/s: request i has id first + i, carries
/// spectrum (first + i) % spectra.size(), and is due at start + i / rate,
/// whether or not earlier answers came back. A sender thread keeps the
/// schedule; a reader thread matches answers to requests by id.
StepResult open_loop(serve::ServeClient& client,
                     const std::vector<chem::Spectrum>& spectra,
                     std::size_t first, std::size_t count, double rate);

/// Closed loop keeping `window` requests in flight for `seconds`: the
/// daemon's sustained throughput, as the median answer rate over eight
/// equal sub-windows. Responses are not kept.
StepResult saturate(serve::ServeClient& client,
                    const std::vector<chem::Spectrum>& spectra,
                    std::size_t window, double seconds);

}  // namespace lbe::benchmark
