#include "proc.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iterator>
#include <thread>

#include "common/error.hpp"
#include "serve/client.hpp"

namespace lbe::benchmark {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One "Vm...:" field of /proc/<pid>/status, in MiB.
double status_mb(const std::string& pid, const std::string& field) {
  const std::string path = "/proc/" + pid + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size())) / 1024.0;
    }
  }
  throw IoError("no " + field + " in " + path);
}

/// Forks and execs `binary`, stdout and stderr to `log_path`. The child
/// gets SIGTERM if this process dies, so nothing outlives the benchmark.
pid_t spawn(const std::string& binary, const std::vector<std::string>& args,
            const std::string& log_path) {
  // Everything the child touches is prepared before fork: after it, only
  // async-signal-safe calls are allowed in a threaded parent.
  std::vector<char*> argv;
  for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) throw IoError("cannot open " + log_path);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  const int fork_errno = errno;
  ::close(log_fd);
  if (pid < 0) throw IoError(std::string("fork: ") + std::strerror(fork_errno));
  return pid;
}

}  // namespace

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

int run_command(const std::string& binary, const std::vector<std::string>& args,
                const std::string& log_path) {
  const pid_t pid = spawn(binary, args, log_path);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw IoError("waitpid failed");
  }
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}

double reset_peak_rss() {
  // Hand freed heap back first, so the reset baseline is live memory only.
  ::malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) throw IoError("cannot reset VmHWM through /proc/self/clear_refs");
  return status_mb("self", "VmRSS:");
}

double peak_rss_mb(const std::string& pid) { return status_mb(pid, "VmHWM:"); }

Daemon::Daemon(const std::string& binary, const std::vector<std::string>& args,
               std::string socket_path, const std::string& log_path)
    : socket_path_(std::move(socket_path)), started_(steady_seconds()) {
  pid_ = spawn(binary, args, log_path);
}

Daemon::~Daemon() {
  try {
    stop();
  } catch (...) {
    // stop() already escalated to SIGKILL and reaped; nothing left to do.
  }
}

double Daemon::wait_ready(const chem::Spectrum& probe, double timeout_seconds) {
  const double deadline = steady_seconds() + timeout_seconds;
  serve::SearchRequest request;
  request.spectra.push_back(probe);
  while (steady_seconds() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw IoError("lbectl serve exited before answering a search");
    }
    serve::ServeClient client(socket_path_);
    try {
      client.connect();
    } catch (const Error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    const serve::ServeClient::Outcome outcome = client.search(request);
    if (outcome.status != serve::Status::kOk) {
      throw IoError("lbectl serve rejected the readiness search: " +
                    outcome.error);
    }
    return steady_seconds() - started_;
  }
  throw IoError("lbectl serve did not answer within the readiness deadline");
}

double Daemon::peak_rss_mb() const {
  return benchmark::peak_rss_mb(std::to_string(pid_));
}

bool Daemon::wait_exit(double timeout_seconds) {
  const double deadline = steady_seconds() + timeout_seconds;
  for (;;) {
    int status = 0;
    const pid_t rc = ::waitpid(pid_, &status, WNOHANG);
    if (rc == pid_ || (rc < 0 && errno == ECHILD)) {
      pid_ = -1;
      return true;
    }
    if (steady_seconds() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

bool Daemon::stop() {
  if (pid_ < 0) return true;
  bool clean = false;
  try {
    serve::ServeClient client(socket_path_);
    client.connect();
    client.shutdown_server();
    clean = wait_exit(5.0);
  } catch (const Error&) {
    clean = false;
  }
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    if (!wait_exit(5.0)) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
    }
  }
  ::unlink(socket_path_.c_str());
  return clean;
}

}  // namespace lbe::benchmark
