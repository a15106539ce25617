#include "common/failpoint.hpp"

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <stdexcept>
#include <unordered_map>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "telemetry/telemetry.hpp"

namespace rtd::fail {

const std::vector<std::string>& all_sites() {
  // One entry per RTD_FAILPOINT / RTD_FAILPOINT_DECLINES site in the tree.
  // Keep sorted; the chaos soak iterates this list to prove every site fires.
  static const std::vector<std::string> kSites = {
      "dsu.grow",                 // AtomicDisjointSet::reset growth realloc
      "engine.cells",             // eps-cell grouping (cache miss)
      "engine.phase1",            // full recount launch (run/sweep/heal)
      "engine.phase1_insert",     // insert count maintenance, post-capture
      "engine.phase1_remove",     // remove count maintenance, post-capture
      "engine.phase2",            // core-merge launch
      "index.build",              // make_index backend construction
      "index.compacted_rebuild",  // CompactedIndex dense rebuild
      "index.insert",             // NeighborIndex::try_insert (declinable)
      "index.refit",              // NeighborIndex::try_set_eps (declinable)
      "index.remove",             // NeighborIndex::try_remove (declinable)
      "repair.border",            // label repair: border re-claim pass
      "repair.relabel",           // label repair: final relabel + membership
      "repair.split",             // label repair: cut-group split detection
      "repair.union",             // label repair: mini-DSU union pass
      "session.publish",          // snapshot creation before atomic swap
      "sweep.scratch",            // sweep shared-scratch sizing
  };
  return kSites;
}

namespace {

struct Armed {
  Config config;
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
  std::mt19937_64 rng;
};

struct Registry {
  Mutex mu;
  // Keyed by canonical site name.  Entries persist after disarm so the
  // hit/fire counters survive for test assertions; `live` marks armed ones.
  std::unordered_map<std::string, Armed> armed RTD_GUARDED_BY(mu);
  std::unordered_map<std::string, Armed> retired RTD_GUARDED_BY(mu);
};

std::atomic<std::uint64_t> g_armed_count{0};

Registry& registry() {
  static Registry* r = [] {
    auto* reg = new Registry();  // leaked: outlives all static destructors
    return reg;
  }();
  return *r;
}

bool known_site(std::string_view site) {
  for (const auto& s : all_sites()) {
    if (s == site) return true;
  }
  return false;
}

[[noreturn]] void throw_for(Action action, const std::string& site) {
  if (action == Action::kThrowBadAlloc) throw std::bad_alloc();
  throw std::runtime_error("failpoint fired: " + site);
}

void parse_env_spec(Registry& r, const char* spec) RTD_REQUIRES(r.mu);

// Parse RTDBSCAN_FAILPOINTS once, lazily, so env-armed sites work without
// any code calling arm().  Callers hold the registry mutex.
void ensure_env_parsed(Registry& r) RTD_REQUIRES(r.mu) {
  static bool parsed = false;
  if (parsed) return;
  parsed = true;
  if (const char* spec = std::getenv("RTDBSCAN_FAILPOINTS")) {
    parse_env_spec(r, spec);
  }
}

void arm_locked(Registry& r, const std::string& site, const Config& config)
    RTD_REQUIRES(r.mu) {
  if (!known_site(site)) {
    throw std::invalid_argument("failpoint: unknown site '" + site + "'");
  }
  if ((config.trigger == Trigger::kOnHit ||
       config.trigger == Trigger::kEveryNth) &&
      config.n == 0) {
    throw std::invalid_argument("failpoint: trigger count must be >= 1");
  }
  if (config.trigger == Trigger::kChance &&
      (config.probability < 0.0 || config.probability > 1.0)) {
    throw std::invalid_argument(
        "failpoint: probability must be in [0, 1]");
  }
  auto [it, inserted] = r.armed.try_emplace(site);
  it->second.config = config;
  it->second.rng.seed(config.seed);
  if (inserted) g_armed_count.fetch_add(1, std::memory_order_relaxed);
}

// spec: site=action[@trigger][;site=action[@trigger]]...
// action: badalloc | error | decline
// trigger: hit:N | every:K | p:P[:seed]
void parse_env_spec(Registry& r, const char* spec) {
  std::string_view rest(spec);
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    std::string_view entry = rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view{}
                                          : rest.substr(semi + 1);
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument(
          "RTDBSCAN_FAILPOINTS: entry missing '=': " + std::string(entry));
    }
    const std::string site(entry.substr(0, eq));
    std::string_view value = entry.substr(eq + 1);
    const std::size_t at = value.find('@');
    const std::string_view action_str = value.substr(0, at);
    Config config;
    if (action_str == "badalloc") {
      config.action = Action::kThrowBadAlloc;
    } else if (action_str == "error") {
      config.action = Action::kThrowError;
    } else if (action_str == "decline") {
      config.action = Action::kDecline;
    } else {
      throw std::invalid_argument("RTDBSCAN_FAILPOINTS: unknown action '" +
                                  std::string(action_str) + "'");
    }
    if (at != std::string_view::npos) {
      std::string_view trig = value.substr(at + 1);
      const auto parse_u64 = [](std::string_view s) {
        if (s.empty()) {
          throw std::invalid_argument(
              "RTDBSCAN_FAILPOINTS: empty trigger number");
        }
        return std::stoull(std::string(s));
      };
      if (trig.rfind("hit:", 0) == 0) {
        config.trigger = Trigger::kOnHit;
        config.n = parse_u64(trig.substr(4));
      } else if (trig.rfind("every:", 0) == 0) {
        config.trigger = Trigger::kEveryNth;
        config.n = parse_u64(trig.substr(6));
      } else if (trig.rfind("p:", 0) == 0) {
        config.trigger = Trigger::kChance;
        std::string_view p = trig.substr(2);
        const std::size_t colon = p.find(':');
        config.probability = std::stod(std::string(p.substr(0, colon)));
        if (colon != std::string_view::npos) {
          config.seed = parse_u64(p.substr(colon + 1));
        }
      } else {
        throw std::invalid_argument("RTDBSCAN_FAILPOINTS: unknown trigger '" +
                                    std::string(trig) + "'");
      }
    }
    arm_locked(r, site, config);
  }
}

}  // namespace

void arm(std::string_view site, const Config& config) {
  if (!compiled_in()) {
    throw std::logic_error(
        "failpoint: build compiled without RTDBSCAN_FAILPOINTS=ON");
  }
  Registry& r = registry();
  const MutexLock lock(r.mu);
  ensure_env_parsed(r);
  arm_locked(r, std::string(site), config);
}

void disarm(std::string_view site) {
  Registry& r = registry();
  const MutexLock lock(r.mu);
  auto it = r.armed.find(std::string(site));
  if (it == r.armed.end()) return;
  // Keep the counters readable after disarm.
  Armed& retired = r.retired[it->first];
  retired.hits += it->second.hits;
  retired.fires += it->second.fires;
  r.armed.erase(it);
  g_armed_count.fetch_sub(1, std::memory_order_relaxed);
}

void disarm_all() {
  Registry& r = registry();
  const MutexLock lock(r.mu);
  for (auto& [site, armed] : r.armed) {
    Armed& retired = r.retired[site];
    retired.hits += armed.hits;
    retired.fires += armed.fires;
  }
  g_armed_count.fetch_sub(r.armed.size(), std::memory_order_relaxed);
  r.armed.clear();
}

std::uint64_t hit_count(std::string_view site) {
  Registry& r = registry();
  const MutexLock lock(r.mu);
  std::uint64_t total = 0;
  if (auto it = r.armed.find(std::string(site)); it != r.armed.end()) {
    total += it->second.hits;
  }
  if (auto it = r.retired.find(std::string(site)); it != r.retired.end()) {
    total += it->second.hits;
  }
  return total;
}

std::uint64_t fire_count(std::string_view site) {
  Registry& r = registry();
  const MutexLock lock(r.mu);
  std::uint64_t total = 0;
  if (auto it = r.armed.find(std::string(site)); it != r.armed.end()) {
    total += it->second.fires;
  }
  if (auto it = r.retired.find(std::string(site)); it != r.retired.end()) {
    total += it->second.fires;
  }
  return total;
}

namespace detail {

bool any_armed() noexcept {
  // Env-armed processes need one slow-path pass to populate the registry;
  // after that this is a single relaxed load.
  static std::atomic<bool> env_checked{false};
  if (!env_checked.load(std::memory_order_acquire)) {
    Registry& r = registry();
    const MutexLock lock(r.mu);
    ensure_env_parsed(r);
    env_checked.store(true, std::memory_order_release);
  }
  return g_armed_count.load(std::memory_order_relaxed) > 0;
}

bool hit(const char* site) {
  Registry& r = registry();
  Action action;
  std::string name;
  {
    const MutexLock lock(r.mu);
    auto it = r.armed.find(site);
    if (it == r.armed.end()) return false;
    Armed& a = it->second;
    ++a.hits;
    bool fire = false;
    switch (a.config.trigger) {
      case Trigger::kOnHit:
        fire = a.hits == a.config.n;
        break;
      case Trigger::kEveryNth:
        fire = a.hits % a.config.n == 0;
        break;
      case Trigger::kChance: {
        std::uniform_real_distribution<double> dist(0.0, 1.0);
        fire = dist(a.rng) < a.config.probability;
        break;
      }
    }
    if (!fire) return false;
    ++a.fires;
    telemetry::count(telemetry::Counter::kFailpointFires);
    action = a.config.action;
    name = it->first;
  }
  if (action == Action::kDecline) return true;
  throw_for(action, name);
}

}  // namespace detail

}  // namespace rtd::fail
