#include "load.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>

#include "common/error.hpp"
#include "stats.hpp"

namespace lbe::benchmark {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kSaturationWindows = 8;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

serve::SearchRequest request_for(const std::vector<chem::Spectrum>& spectra,
                                 std::size_t id) {
  serve::SearchRequest request;
  request.start_id = static_cast<std::uint32_t>(id);
  request.spectra.push_back(spectra[id % spectra.size()]);
  return request;
}

}  // namespace

StepResult open_loop(serve::ServeClient& client,
                     const std::vector<chem::Spectrum>& spectra,
                     std::size_t first, std::size_t count, double rate) {
  StepResult step;
  step.offered_sps = rate;
  step.late_ms.assign(count, 0.0);
  step.latency_ms.reserve(count);
  step.responses.resize(count);

  std::vector<Clock::time_point> due(count);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < count; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             static_cast<double>(i) / rate));
  }

  std::exception_ptr send_error;
  std::thread sender([&] {
    try {
      for (std::size_t i = 0; i < count; ++i) {
        const serve::SearchRequest request = request_for(spectra, first + i);
        std::this_thread::sleep_until(due[i]);
        step.late_ms[i] = ms_between(due[i], Clock::now());
        client.send_search(request);
      }
    } catch (...) {
      send_error = std::current_exception();
    }
  });

  std::exception_ptr read_error;
  Clock::time_point last = start;
  try {
    for (std::size_t k = 0; k < count; ++k) {
      serve::ServeClient::Outcome outcome = client.read_search_result();
      last = Clock::now();
      if (outcome.status != serve::Status::kOk) {
        ++step.rejected;
        continue;
      }
      const std::size_t i = outcome.response.start_id - first;
      LBE_CHECK(outcome.response.start_id >= first && i < count,
                "daemon answered an id that was never sent");
      step.latency_ms.push_back(ms_between(due[i], last));
      step.responses[i] = std::move(outcome.response);
      ++step.answered;
    }
  } catch (...) {
    read_error = std::current_exception();
  }
  sender.join();
  if (send_error) std::rethrow_exception(send_error);
  if (read_error) std::rethrow_exception(read_error);

  step.sent = count;
  step.achieved_sps = static_cast<double>(step.answered) /
                      std::max(1e-9, ms_between(start, last) / 1e3);
  return step;
}

StepResult saturate(serve::ServeClient& client,
                    const std::vector<chem::Spectrum>& spectra,
                    std::size_t window, double seconds) {
  StepResult step;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::size_t in_flight = 0;
  const auto send_next = [&] {
    client.send_search(request_for(spectra, step.sent));
    ++step.sent;
    ++in_flight;
  };
  for (std::size_t w = 0; w < window; ++w) send_next();
  std::vector<Clock::time_point> answers;
  while (in_flight > 0) {
    const serve::ServeClient::Outcome outcome = client.read_search_result();
    const Clock::time_point now = Clock::now();
    --in_flight;
    if (outcome.status == serve::Status::kOk) {
      ++step.answered;
      if (now < end) answers.push_back(now);
    } else {
      ++step.rejected;
    }
    if (now < end) send_next();
  }
  // The median over sub-windows: a host hiccup that stalls one sub-window
  // must not move the sustained rate.
  std::vector<double> per_window(kSaturationWindows, 0.0);
  const double window_ms = ms_between(start, end) / kSaturationWindows;
  for (const Clock::time_point answer : answers) {
    const auto slot =
        static_cast<std::size_t>(ms_between(start, answer) / window_ms);
    per_window[std::min(slot, per_window.size() - 1)] += 1.0;
  }
  for (double& count : per_window) count /= window_ms / 1e3;
  step.achieved_sps = median(per_window);
  return step;
}

}  // namespace lbe::benchmark
