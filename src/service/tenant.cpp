#include "service/tenant.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "service/epoch_engine.h"
#include "util/stopwatch.h"

namespace staleflow {
namespace {

bool legal_tenant_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

std::size_t MultiTenantResult::total_queries() const noexcept {
  std::size_t total = 0;
  for (const TenantResult& tenant : tenants) {
    total += tenant.server.total_queries;
  }
  return total;
}

std::size_t MultiTenantResult::total_epochs() const noexcept {
  std::size_t total = 0;
  for (const TenantResult& tenant : tenants) {
    total += tenant.server.epochs.size();
  }
  return total;
}

void TenantRegistry::add(const std::string& name, const Instance& instance,
                         const Policy& policy,
                         const WorkloadGenerator& workload,
                         const TenantOptions& options) {
  if (!legal_tenant_name(name)) {
    throw std::invalid_argument(
        "TenantRegistry::add: tenant name must be non-empty [A-Za-z0-9_-]+"
        ", got '" + name + "'");
  }
  for (const Tenant& tenant : tenants_) {
    if (tenant.name == name) {
      throw std::invalid_argument("TenantRegistry::add: duplicate tenant '" +
                                  name + "'");
    }
  }
  if (options.weight == 0) {
    throw std::invalid_argument(
        "TenantRegistry::add: weight must be >= 1 (tenant '" + name + "')");
  }
  Tenant tenant;
  tenant.name = name;
  tenant.instance = &instance;
  tenant.policy = &policy;
  tenant.workload = &workload;
  tenant.options = options;
  tenant.store = std::make_unique<SnapshotStore>();
  tenants_.push_back(std::move(tenant));
}

const std::string& TenantRegistry::name(std::size_t tenant) const {
  if (tenant >= tenants_.size()) {
    throw std::out_of_range("TenantRegistry::name: no such tenant");
  }
  return tenants_[tenant].name;
}

SnapshotPtr TenantRegistry::snapshot(std::size_t tenant) const {
  if (tenant >= tenants_.size()) {
    throw std::out_of_range("TenantRegistry::snapshot: no such tenant");
  }
  return tenants_[tenant].store->acquire();
}

MultiTenantResult TenantRegistry::run(Executor& executor,
                                      const TenantObserver& observer,
                                      const RoundCutObserver& rounds,
                                      const RegistryResume* resume) {
  if (tenants_.empty()) {
    throw std::invalid_argument("TenantRegistry::run: no tenants registered");
  }
  if (resume != nullptr &&
      ((!resume->credits.empty() &&
        resume->credits.size() != tenants_.size()) ||
       (!resume->cuts.empty() && resume->cuts.size() != tenants_.size()))) {
    throw std::invalid_argument(
        "TenantRegistry::run: resume state does not match the tenant "
        "count");
  }

  // Spin up one engine per tenant. begin() validates each tenant's
  // options before ANY tenant serves, so a bad tenant fails the run
  // up front instead of mid-multiplex.
  std::vector<std::unique_ptr<EpochEngine>> engines;
  std::vector<RoundTenant> round_tenants;
  engines.reserve(tenants_.size());
  // Crash-fault lookup: the registry crashes on ROUND commit points, so
  // any tenant's schedule (they share one --faults spec in the CLI; the
  // first non-null pointer wins) drives the whole host's crash clause.
  const faults::FaultSchedule* fault_plan = nullptr;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    Tenant& tenant = tenants_[i];
    engines.push_back(std::make_unique<EpochEngine>(
        *tenant.instance, *tenant.policy, *tenant.workload, *tenant.store));
    engines.back()->set_trace_tenant(static_cast<std::uint32_t>(i));
    engines.back()->begin(FlowVector::uniform(*tenant.instance),
                          tenant.options.server);
    if (resume != nullptr && !resume->cuts.empty()) {
      engines.back()->restore(resume->cuts[i]);
    }
    round_tenants.push_back({engines.back().get(), tenant.options.weight});
    if (fault_plan == nullptr) fault_plan = tenant.options.server.faults;
  }

  // A resumed run picks the round counter and credit vector up at the
  // checkpointed round boundary, so the remaining rounds are exactly the
  // ones the uninterrupted run would have executed.
  RoundState state;
  if (resume != nullptr) {
    state.rounds = resume->rounds;
    state.credits = resume->credits;
  }
  MultiTenantResult result;
  const Stopwatch run_watch;
  result.rounds = run_rounds(round_tenants, executor, std::move(state),
                             observer, rounds, fault_plan)
                      .rounds;
  result.wall_seconds = run_watch.seconds();

  result.tenants.reserve(tenants_.size());
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    result.tenants.push_back(
        {tenants_[i].name, engines[i]->finish(result.wall_seconds)});
  }
  return result;
}

// --------------------------------------------------------------------------
// --tenants grammar
// --------------------------------------------------------------------------

namespace {

constexpr const char* kTenantKeys =
    "scenario, policy, workload, clients, shards, epochs, period, seed, "
    "weight, sub-batch";

[[noreturn]] void bad_spec(const std::string& what) {
  throw std::invalid_argument("--tenants: " + what +
                              " (keys: " + kTenantKeys + ")");
}

std::uint64_t parse_spec_count(const std::string& value,
                               const std::string& key) {
  if (value.empty() || value.find_first_not_of("0123456789") !=
                           std::string::npos) {
    bad_spec("bad value for " + key + ": '" + value + "'");
  }
  try {
    return std::stoull(value);
  } catch (const std::exception&) {
    bad_spec("bad value for " + key + ": '" + value + "'");
  }
}

double parse_spec_number(const std::string& value, const std::string& key) {
  try {
    std::size_t used = 0;
    const double parsed = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    bad_spec("bad value for " + key + ": '" + value + "'");
  }
}

/// Splits the field list on ',' re-joining items that carry no '=' onto
/// the previous value, so workload=bursty:40000,2000,3,2 survives intact.
std::vector<std::pair<std::string, std::string>> split_fields(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> fields;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = std::min(text.find(',', start), text.size());
    const std::string item = text.substr(start, comma - start);
    start = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      if (fields.empty()) {
        bad_spec("expected key=value, got '" + item + "'");
      }
      fields.back().second += ',' + item;  // value continuation
      continue;
    }
    fields.emplace_back(item.substr(0, eq), item.substr(eq + 1));
  }
  return fields;
}

TenantSpec parse_one_tenant(const std::string& text) {
  TenantSpec spec;
  const std::size_t colon = text.find(':');
  spec.name = text.substr(0, colon);
  if (!legal_tenant_name(spec.name)) {
    bad_spec("tenant name must be non-empty [A-Za-z0-9_-]+, got '" +
             spec.name + "'");
  }
  if (colon == std::string::npos) return spec;

  for (const auto& [key, value] : split_fields(text.substr(colon + 1))) {
    if (value.empty()) bad_spec("empty value for " + key);
    if (key == "scenario") {
      spec.scenario = value;
    } else if (key == "policy") {
      spec.policy = value;
    } else if (key == "workload") {
      spec.workload = value;
    } else if (key == "clients") {
      spec.clients = parse_spec_count(value, key);
    } else if (key == "shards") {
      spec.shards = parse_spec_count(value, key);
    } else if (key == "epochs") {
      spec.epochs = parse_spec_count(value, key);
    } else if (key == "period") {
      spec.period = parse_spec_number(value, key);
    } else if (key == "seed") {
      spec.seed = parse_spec_count(value, key);
    } else if (key == "weight") {
      spec.weight = parse_spec_count(value, key);
    } else if (key == "sub-batch") {
      if (value == "auto") {
        spec.sub_batch_auto = true;
        spec.sub_batch.reset();
      } else {
        spec.sub_batch = parse_spec_count(value, key);
        spec.sub_batch_auto = false;
      }
    } else {
      bad_spec("unknown key '" + key + "'");
    }
  }
  return spec;
}

}  // namespace

std::vector<TenantSpec> parse_tenant_specs(const std::string& text) {
  std::vector<TenantSpec> specs;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t semi = std::min(text.find(';', start), text.size());
    const std::string item = text.substr(start, semi - start);
    start = semi + 1;
    if (item.empty()) continue;
    specs.push_back(parse_one_tenant(item));
  }
  if (specs.empty()) {
    bad_spec("no tenants in spec (grammar: "
             "<name>[:key=value,...][;<name>...])");
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t j = i + 1; j < specs.size(); ++j) {
      if (specs[i].name == specs[j].name) {
        bad_spec("duplicate tenant name '" + specs[i].name + "'");
      }
    }
  }
  return specs;
}

}  // namespace staleflow
