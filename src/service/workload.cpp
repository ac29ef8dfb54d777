#include "service/workload.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace staleflow {
namespace {

class PoissonWorkload final : public WorkloadGenerator {
 public:
  explicit PoissonWorkload(double rate) : rate_(rate) {}

  std::size_t arrivals(std::uint64_t, double, double period,
                       const LoadFeedback&, Rng& rng) const override {
    return poisson_draw(rate_ * period, rng);
  }

  std::string name() const override {
    std::ostringstream out;
    out << "poisson:" << rate_;
    return out.str();
  }

 private:
  double rate_;
};

class BurstyWorkload final : public WorkloadGenerator {
 public:
  BurstyWorkload(double rate_on, double rate_off, std::uint64_t on_epochs,
                 std::uint64_t off_epochs)
      : rate_on_(rate_on),
        rate_off_(rate_off),
        on_epochs_(on_epochs),
        off_epochs_(off_epochs) {}

  std::size_t arrivals(std::uint64_t epoch, double, double period,
                       const LoadFeedback&, Rng& rng) const override {
    const std::uint64_t cycle = epoch % (on_epochs_ + off_epochs_);
    const double rate = cycle < on_epochs_ ? rate_on_ : rate_off_;
    return poisson_draw(rate * period, rng);
  }

  std::string name() const override {
    std::ostringstream out;
    out << "bursty:" << rate_on_ << ',' << rate_off_ << ',' << on_epochs_
        << ',' << off_epochs_;
    return out.str();
  }

 private:
  double rate_on_;
  double rate_off_;
  std::uint64_t on_epochs_;
  std::uint64_t off_epochs_;
};

class DiurnalWorkload final : public WorkloadGenerator {
 public:
  DiurnalWorkload(double base_rate, double amplitude, double day_length)
      : base_(base_rate), amplitude_(amplitude), day_(day_length) {}

  std::size_t arrivals(std::uint64_t, double start, double period,
                       const LoadFeedback&, Rng& rng) const override {
    // Rate at the epoch midpoint; epochs are short against a day.
    const double t = start + 0.5 * period;
    const double rate =
        base_ * (1.0 + amplitude_ *
                           std::sin(2.0 * std::numbers::pi * t / day_));
    return poisson_draw(std::max(rate, 0.0) * period, rng);
  }

  std::string name() const override {
    std::ostringstream out;
    out << "diurnal:" << base_ << ',' << amplitude_ << ',' << day_;
    return out.str();
  }

 private:
  double base_;
  double amplitude_;
  double day_;
};

class ClosedLoopWorkload final : public WorkloadGenerator {
 public:
  explicit ClosedLoopWorkload(std::size_t queries_per_epoch)
      : queries_(queries_per_epoch) {}

  std::size_t arrivals(std::uint64_t, double, double, const LoadFeedback&,
                       Rng&) const override {
    return queries_;
  }

  std::string name() const override {
    std::ostringstream out;
    out << "closed-loop:" << queries_;
    return out.str();
  }

 private:
  std::size_t queries_;
};

class ClosedLoopLatencyWorkload final : public WorkloadGenerator {
 public:
  ClosedLoopLatencyWorkload(std::size_t clients, double think_time)
      : clients_(clients), think_(think_time) {}

  std::size_t arrivals(std::uint64_t, double, double period,
                       const LoadFeedback& feedback, Rng&) const override {
    // One client cycle = think + the latency the service actually served
    // last epoch; the fleet fits clients * period / cycle queries into
    // the epoch. Deterministic: route_p50 is a board value, not wall
    // clock, so the whole feedback loop replays bit-for-bit.
    const double cycle =
        think_ + (feedback.has_previous ? feedback.route_p50 : 0.0);
    return static_cast<std::size_t>(static_cast<double>(clients_) * period /
                                    cycle);
  }

  std::string name() const override {
    std::ostringstream out;
    out << "closed-loop-lat:" << clients_ << ',' << think_;
    return out.str();
  }

 private:
  std::size_t clients_;
  double think_;
};

[[noreturn]] void bad_workload(const std::string& spec,
                               const std::string& why) {
  throw std::invalid_argument(
      "make_workload: " + why + " in '" + spec +
      "' (have: poisson:<rate>, bursty:<on>,<off>,<on_epochs>,<off_epochs>, "
      "diurnal:<base>,<amplitude>,<day>, closed-loop:<n>, "
      "closed-loop-lat:<clients>,<think>)");
}

double integral_or_die(const std::string& spec, double value,
                       const std::string& what) {
  if (value != std::floor(value)) {
    bad_workload(spec, what + " must be an integer");
  }
  return value;
}

std::vector<double> parse_numbers(const std::string& spec,
                                  const std::string& text,
                                  std::size_t expect) {
  std::vector<double> out;
  std::istringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    try {
      std::size_t used = 0;
      out.push_back(std::stod(item, &used));
      if (used != item.size()) throw std::invalid_argument(item);
    } catch (const std::exception&) {
      bad_workload(spec, "bad number '" + item + "'");
    }
  }
  if (out.size() != expect) bad_workload(spec, "wrong parameter count");
  return out;
}

}  // namespace

std::size_t poisson_draw(double mean, Rng& rng) {
  if (!(mean > 0.0)) return 0;
  if (mean > 64.0) {
    const double draw = rng.normal(mean, std::sqrt(mean));
    return draw <= 0.0 ? 0 : static_cast<std::size_t>(std::llround(draw));
  }
  // Knuth: multiply uniforms until the product drops below exp(-mean).
  const double limit = std::exp(-mean);
  std::size_t count = 0;
  double product = rng.uniform();
  while (product > limit) {
    ++count;
    product *= rng.uniform();
  }
  return count;
}

WorkloadPtr poisson_workload(double rate) {
  if (!(rate > 0.0)) {
    throw std::invalid_argument("poisson_workload: rate must be > 0");
  }
  return std::make_unique<PoissonWorkload>(rate);
}

WorkloadPtr bursty_workload(double rate_on, double rate_off,
                            std::uint64_t on_epochs,
                            std::uint64_t off_epochs) {
  if (!(rate_on >= 0.0) || !(rate_off >= 0.0)) {
    throw std::invalid_argument("bursty_workload: rates must be >= 0");
  }
  if (on_epochs + off_epochs == 0) {
    throw std::invalid_argument("bursty_workload: empty cycle");
  }
  return std::make_unique<BurstyWorkload>(rate_on, rate_off, on_epochs,
                                          off_epochs);
}

WorkloadPtr diurnal_workload(double base_rate, double amplitude,
                             double day_length) {
  if (!(base_rate > 0.0) || !(day_length > 0.0) || amplitude < 0.0) {
    throw std::invalid_argument(
        "diurnal_workload: need base > 0, day > 0, amplitude >= 0");
  }
  return std::make_unique<DiurnalWorkload>(base_rate, amplitude, day_length);
}

WorkloadPtr closed_loop_workload(std::size_t queries_per_epoch) {
  return std::make_unique<ClosedLoopWorkload>(queries_per_epoch);
}

WorkloadPtr closed_loop_latency_workload(std::size_t clients,
                                         double think_time) {
  if (!(think_time > 0.0)) {
    throw std::invalid_argument(
        "closed_loop_latency_workload: think_time must be > 0 (the first "
        "epoch has no served latency to pace on)");
  }
  return std::make_unique<ClosedLoopLatencyWorkload>(clients, think_time);
}

WorkloadPtr make_workload(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  const std::string head = spec.substr(0, colon);
  const std::string tail =
      colon == std::string::npos ? "" : spec.substr(colon + 1);

  if (head == "poisson") {
    const std::vector<double> p = parse_numbers(spec, tail, 1);
    if (!(p[0] > 0.0)) bad_workload(spec, "rate must be > 0");
    return poisson_workload(p[0]);
  }
  if (head == "bursty") {
    const std::vector<double> p = parse_numbers(spec, tail, 4);
    if (p[0] < 0.0 || p[1] < 0.0 || p[2] < 0.0 || p[3] < 0.0) {
      bad_workload(spec, "negative parameter");
    }
    integral_or_die(spec, p[2], "on_epochs");
    integral_or_die(spec, p[3], "off_epochs");
    return bursty_workload(p[0], p[1], static_cast<std::uint64_t>(p[2]),
                           static_cast<std::uint64_t>(p[3]));
  }
  if (head == "diurnal") {
    const std::vector<double> p = parse_numbers(spec, tail, 3);
    return diurnal_workload(p[0], p[1], p[2]);
  }
  if (head == "closed-loop") {
    const std::vector<double> p = parse_numbers(spec, tail, 1);
    if (p[0] < 0.0) bad_workload(spec, "negative count");
    integral_or_die(spec, p[0], "queries per epoch");
    return closed_loop_workload(static_cast<std::size_t>(p[0]));
  }
  if (head == "closed-loop-lat") {
    const std::vector<double> p = parse_numbers(spec, tail, 2);
    if (p[0] < 0.0) bad_workload(spec, "negative client count");
    integral_or_die(spec, p[0], "clients");
    if (!(p[1] > 0.0)) bad_workload(spec, "think time must be > 0");
    return closed_loop_latency_workload(static_cast<std::size_t>(p[0]), p[1]);
  }
  bad_workload(spec, "unknown workload '" + head + "'");
}

}  // namespace staleflow
