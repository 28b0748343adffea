// OS plumbing: whole-file reads, peak-RSS readings, child processes and the
// `lbectl serve` daemon.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "chem/spectrum.hpp"

namespace lbe::benchmark {

/// The whole file at `path`; throws IoError when it cannot be read.
std::string read_file(const std::string& path);

/// Returns freed heap to the OS and resets this process's VmHWM to its
/// current RSS ("5" to clear_refs), so the next reading is the peak of the
/// phase that follows. Returns that RSS (MiB), the phase's baseline.
double reset_peak_rss();

/// VmHWM of `pid` ("self" for this process) in MiB; throws IoError when
/// the status file cannot be read.
double peak_rss_mb(const std::string& pid = "self");

/// Runs `binary` with `args` (args[0] is the program name) to completion,
/// stdout and stderr to `log_path`; returns its exit status (128 + signal
/// when it was killed).
int run_command(const std::string& binary, const std::vector<std::string>& args,
                const std::string& log_path);

/// A `lbectl serve` daemon started as a child process. Every exit path
/// stops it: the destructor sends the shutdown frame, escalates to SIGTERM
/// and then SIGKILL after deadlines, reaps the child and removes its
/// socket.
class Daemon {
 public:
  /// Starts `binary` with `args` (args[0] is the program name), stdout and
  /// stderr to `log_path`. The daemon must listen on `socket_path`.
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         std::string socket_path, const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Seconds from the exec to the first answered search of `probe`,
  /// polling every millisecond. Throws IoError if the child exits or
  /// nothing answers within `timeout_seconds`.
  double wait_ready(const chem::Spectrum& probe, double timeout_seconds);

  /// The daemon's VmHWM in MiB.
  double peak_rss_mb() const;

  /// Stops and reaps the daemon (idempotent). Returns true when it exited
  /// cleanly on the shutdown frame alone.
  bool stop();

 private:
  bool wait_exit(double timeout_seconds);

  std::string socket_path_;
  pid_t pid_ = -1;
  double started_ = 0.0;  ///< steady-clock seconds at fork
};

}  // namespace lbe::benchmark
