#include "measure.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hpp"
#include "net/async.hpp"

namespace perfbench {

void Sheet::fail(const std::string& why) {
  ++failed_;
  if (reasons_.size() < 16) reasons_.push_back(why);
}

std::string Sheet::to_json(bool optimized_build) const {
  geoproof::JsonWriter w;
  w.begin_object();
  w.kv("correct", failed_ == 0 && attempted_ > 0 && optimized_build);
  w.kv("attempted", attempted_);
  w.kv("failed", failed_);
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, value_unit] : metrics_) {
    w.key(name);
    w.begin_object();
    w.kv("value", value_unit.first);
    w.kv("unit", value_unit.second);
    w.end_object();
  }
  w.end_object();
  w.key("digests");
  w.begin_object();
  for (const auto& [name, hex] : digests_) w.kv(name, hex);
  w.end_object();
  w.key("notes");
  w.begin_object();
  for (const auto& [name, value] : notes_) w.kv(name, value);
  w.end_object();
  w.key("stamp");
  w.begin_object();
  for (const auto& [name, value] : stamp_) w.kv(name, value);
  w.end_object();
  w.key("failures");
  w.begin_array();
  for (const auto& why : reasons_) w.value(why);
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Digest::add(double v) {
  add(static_cast<std::uint64_t>(std::llround(v * 1e9)));
}

void Digest::add(const std::string& s) {
  add(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) byte(static_cast<std::uint8_t>(c));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

namespace {

double rusage_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

volatile std::uint64_t calibration_sink;  // keeps the loop from being elided

void calibration_loop() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 1000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += (x * 2654435761ULL) >> 7;
  }
  calibration_sink = acc;
}

}  // namespace

double calibration_ms() {
  const auto t0 = Clock::now();
  calibration_loop();
  return 1e3 * since_s(t0);
}

double thread_cpu_s() { return rusage_s(RUSAGE_THREAD); }
double process_cpu_s() { return rusage_s(RUSAGE_SELF); }

double pid_cpu_s(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  if (!std::getline(in, stat)) return -1.0;
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string http_get(std::uint16_t port, const std::string& path) {
  geoproof::net::Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    return {};
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (::send(sock.fd(), request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    return {};
  }
  std::string response;
  char buf[4096];
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (Clock::now() < deadline) {
    pollfd pfd{sock.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 200) <= 0) continue;
    const ssize_t n = ::recv(sock.fd(), buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? std::string{} : response.substr(body + 4);
}

double prometheus_value(const std::string& text, const std::string& name) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return -1.0;
}

}  // namespace perfbench
