#include "child.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

void Wire::raw(const void* p, std::size_t n) {
  bytes_.append(static_cast<const char*>(p), n);
}

void Wire::take(void* p, std::size_t n) {
  if (pos_ + n > bytes_.size()) throw std::runtime_error("short child record");
  std::memcpy(p, bytes_.data() + pos_, n);
  pos_ += n;
}

void Wire::put(const std::string& s) {
  put(static_cast<std::uint64_t>(s.size()));
  raw(s.data(), s.size());
}

void Wire::put(const Samples& s) {
  put(static_cast<std::uint64_t>(s.size()));
  for (const double v : s.values()) put(v);
}

std::uint64_t Wire::u64() {
  std::uint64_t v = 0;
  take(&v, sizeof v);
  return v;
}

double Wire::f64() {
  double v = 0;
  take(&v, sizeof v);
  return v;
}

std::string Wire::str() {
  const std::uint64_t n = u64();
  if (n > bytes_.size() - pos_) throw std::runtime_error("short child record");
  std::string s(bytes_.data() + pos_, n);
  pos_ += n;
  return s;
}

Samples Wire::samples() {
  Samples s;
  const std::uint64_t n = u64();
  for (std::uint64_t i = 0; i < n; ++i) s.add(f64());
  return s;
}

std::optional<std::string> run_in_child(
    const std::function<std::string()>& work, std::string& why) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);  // no buffered output duplicated into the child
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      const std::string bytes = work();
      std::size_t off = 0;
      while (off < bytes.size()) {
        const ssize_t n = write(fds[1], bytes.data() + off, bytes.size() - off);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          code = 3;
          break;
        }
        off += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench child: %s\n", e.what());
      code = 2;
    }
    close(fds[1]);
    _exit(code);  // no atexit handlers or stdio flushes of the parent's state
  }
  close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFSIGNALED(status)) {
    why = std::string("session process killed by signal ") +
          std::to_string(WTERMSIG(status)) + " (" + strsignal(WTERMSIG(status)) + ")";
    return std::nullopt;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    why = "session process exited with status " + std::to_string(WEXITSTATUS(status));
    return std::nullopt;
  }
  return bytes;
}

}  // namespace perfbench
