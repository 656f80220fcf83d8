#include "record.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>

#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

namespace lifting::e2e {

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Record::get(const std::string& key, double fallback) const {
  const auto it = values.find(key);
  return it == values.end() || it->second.empty() ? fallback
                                                  : it->second.front();
}

const std::vector<double>& Record::all(const std::string& key) const {
  static const std::vector<double> kEmpty;
  const auto it = values.find(key);
  return it == values.end() ? kEmpty : it->second;
}

int Record::open(std::string name, int parent, int lane) {
  spans.push_back(Span{std::move(name), parent, lane, now_s(), 0.0});
  return static_cast<int>(spans.size()) - 1;
}

// Line format: "v <key> <n> <x1> ... <xn>" and
// "s <name> <parent> <lane> <start> <end>". Keys and span names never hold
// whitespace; %.17g round-trips every double exactly (digests compare
// bit for bit across repetitions).
std::string Record::serialize() const {
  std::string out;
  char buf[64];
  for (const auto& [key, vec] : values) {
    out += "v " + key + ' ' + std::to_string(vec.size());
    for (const double x : vec) {
      std::snprintf(buf, sizeof buf, " %.17g", x);
      out += buf;
    }
    out += '\n';
  }
  for (const auto& s : spans) {
    std::snprintf(buf, sizeof buf, " %d %d %.9f %.9f\n", s.parent, s.lane,
                  s.start_s, s.end_s);
    out += "s " + s.name + buf;
  }
  return out;
}

std::optional<Record> Record::parse(const std::string& text) {
  Record r;
  std::istringstream in(text);
  std::string tag;
  while (in >> tag) {
    if (tag == "v") {
      std::string key;
      std::size_t n = 0;
      if (!(in >> key >> n)) return std::nullopt;
      auto& vec = r.values[key];
      vec.resize(n);
      for (auto& x : vec) {
        std::string word;
        if (!(in >> word)) return std::nullopt;
        x = std::strtod(word.c_str(), nullptr);  // accepts nan/inf
      }
    } else if (tag == "s") {
      Span s;
      if (!(in >> s.name >> s.parent >> s.lane >> s.start_s >> s.end_s)) {
        return std::nullopt;
      }
      r.spans.push_back(std::move(s));
    } else {
      return std::nullopt;
    }
  }
  return r;
}

Isolated run_isolated(const std::function<Record()>& body) {
  Isolated out;
  int fds[2];
  if (::pipe(fds) != 0) return out;
  std::fflush(stdout);
  std::fflush(stderr);
  const double t0 = now_s();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return out;
  }
  if (pid == 0) {
    ::close(fds[0]);
    ::dup2(STDERR_FILENO, STDOUT_FILENO);
    int code = 0;
    try {
      const std::string text = body().serialize();
      std::size_t done = 0;
      while (done < text.size()) {
        const ssize_t n = ::write(fds[1], text.data() + done, text.size() - done);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          code = 4;
          break;
        }
        done += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "lifting_bench: repetition failed: %s\n", e.what());
      code = 3;
    }
    std::fflush(stderr);
    _exit(code);
  }
  ::close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  out.wall_s = now_s() - t0;
  auto parsed = Record::parse(text);
  out.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0 && parsed.has_value();
  if (parsed) out.record = std::move(*parsed);
  return out;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::optional<Tail> tail(const std::vector<double>& v) {
  const auto n = static_cast<double>(v.size());
  for (const double pct : {99.9, 99.0, 90.0}) {
    if (n * (1.0 - pct / 100.0) >= 10.0) {
      return Tail{pct, quantile(v, pct / 100.0)};
    }
  }
  return std::nullopt;
}

double iqr_share(std::vector<double> v) {
  const std::size_t ld = v.size();
  if (ld < 2) return 0.0;
  std::sort(v.begin(), v.end());
  const auto cut = [&](std::size_t i) {
    const std::size_t m = ld + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  const double med = median(v);
  return med == 0.0 ? 0.0 : (cut(3) - cut(1)) / std::fabs(med);
}

}  // namespace lifting::e2e
