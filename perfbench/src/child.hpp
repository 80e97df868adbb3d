// Running one session in a forked child process.  A crash inside the
// simulated stack (a fault-recovery path writing freed memory, say) then
// ends only the child: the parent counts one failed op and the run goes on.
// The child returns its results as a flat byte string.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "perfbench.hpp"

namespace perfbench {

/// Flat little-endian encoding of the values a child sends back.
class Wire {
 public:
  Wire() = default;
  explicit Wire(std::string bytes) : bytes_(std::move(bytes)) {}

  void put(std::uint64_t v) { raw(&v, sizeof v); }
  void put(double v) { raw(&v, sizeof v); }
  void put(const std::string& s);
  void put(const Samples& s);

  std::uint64_t u64();
  double f64();
  std::string str();
  Samples samples();

  const std::string& bytes() const noexcept { return bytes_; }

 private:
  void raw(const void* p, std::size_t n);
  void take(void* p, std::size_t n);
  std::string bytes_;
  std::size_t pos_ = 0;
};

/// Forks; the child runs `work` and exits, and the parent returns the bytes
/// `work` produced.  Returns nullopt, with `why` describing how the child
/// ended, when it was killed by a signal or did not exit cleanly.
std::optional<std::string> run_in_child(const std::function<std::string()>& work,
                                        std::string& why);

}  // namespace perfbench
