#include "src/apps/trading.h"

#include <map>
#include <memory>
#include <optional>

#include "src/catocs/group.h"
#include "src/obs/provenance.h"
#include "src/statelevel/version.h"

namespace apps {

namespace {

class PriceUpdate : public net::Payload {
 public:
  PriceUpdate(std::string object, uint64_t version, double value, uint64_t dep_version)
      : object_(std::move(object)), version_(version), value_(value), dep_version_(dep_version) {}
  size_t SizeBytes() const override { return 24 + object_.size() + (dep_version_ ? 16 : 0); }
  std::string Describe() const override { return object_; }
  const std::string& object() const { return object_; }
  uint64_t version() const { return version_; }
  double value() const { return value_; }
  // 0 = none (an option price); else the base option version.
  uint64_t dep_version() const { return dep_version_; }

 private:
  std::string object_;
  uint64_t version_;
  double value_;
  uint64_t dep_version_;
};

}  // namespace

TradingResult RunTradingScenario(const TradingConfig& config) {
  sim::Simulator s(config.seed);

  // Members: 1 = option pricer, 2 = theoretical pricer, 3 = monitor.
  catocs::FabricConfig fabric_config;
  fabric_config.num_members = 3;
  fabric_config.latency_lo = config.latency_lo;
  fabric_config.latency_hi = config.latency_hi;
  fabric_config.group.causal_buffer = config.causal_buffer;
  if (config.provenance != nullptr) {
    fabric_config.group.observability = true;
    fabric_config.group.provenance = config.provenance;
    config.provenance->set_enabled(true);
    s.spans().set_enabled(true);
  }
  catocs::GroupFabric fabric(&s, fabric_config);

  // The theoretical pricer: derive from each delivered option price after a
  // compute delay, and publish with the dependency field.
  uint64_t theo_version = 0;
  fabric.member(1).SetDeliveryHandler([&](const catocs::Delivery& d) {
    const auto* update = net::PayloadCast<PriceUpdate>(d.payload());
    if (update == nullptr || update->object() != "opt") {
      return;
    }
    const uint64_t base_version = update->version();
    const double theo = update->value() + config.premium;
    const catocs::MessageId base_id = d.id();
    s.ScheduleAfter(config.compute_delay, [&fabric, &config, &theo_version, base_version, theo,
                                           base_id] {
      // The one ordering the app truly needs — theo after its base price —
      // is exactly what it declares; every other enforced edge is spurious.
      fabric.member(1).DeclareDependency(base_id);
      fabric.member(1).Send(config.mode, std::make_shared<PriceUpdate>("theo", ++theo_version,
                                                                       theo, base_version));
    });
  });

  // The monitor: raw display vs dependency-paired display.
  TradingResult result;
  result.price_updates = config.price_updates;
  struct RawDisplay {
    std::optional<double> opt;
    uint64_t opt_version = 0;
    std::optional<double> theo;
    uint64_t theo_dep = 0;
  } raw;
  std::map<uint64_t, double> opt_history;  // version -> price (paired display)
  std::optional<double> paired_theo;
  uint64_t paired_theo_dep = 0;
  uint64_t newest_opt_version = 0;

  auto evaluate = [&] {
    // Raw display: latest delivered of each stream side by side.
    if (raw.opt && raw.theo) {
      if (raw.theo_dep < raw.opt_version) {
        ++result.raw_inconsistent_displays;
        if (*raw.theo <= *raw.opt) {
          ++result.raw_false_crossings;
        }
      }
    }
    // Paired display: theo shown with the base price it was derived from.
    if (paired_theo) {
      auto base = opt_history.find(paired_theo_dep);
      if (base == opt_history.end()) {
        // Base not yet delivered: the display holds the previous pair; a
        // lag, never an inconsistency.
        ++result.paired_lagging_displays;
      } else {
        if (paired_theo_dep < newest_opt_version) {
          ++result.paired_lagging_displays;
        }
        if (*paired_theo <= base->second) {
          ++result.paired_false_crossings;
        }
      }
    }
  };

  fabric.member(2).SetDeliveryHandler([&](const catocs::Delivery& d) {
    const auto* update = net::PayloadCast<PriceUpdate>(d.payload());
    if (update == nullptr) {
      return;
    }
    if (update->object() == "opt") {
      raw.opt = update->value();
      raw.opt_version = std::max(raw.opt_version, update->version());
      opt_history[update->version()] = update->value();
      newest_opt_version = std::max(newest_opt_version, update->version());
    } else {
      raw.theo = update->value();
      raw.theo_dep = update->dep_version();
      paired_theo = update->value();
      paired_theo_dep = update->dep_version();
    }
    evaluate();
  });

  fabric.StartAll();

  // The option price stream: a bounded random walk.
  sim::Rng walk = s.rng().Fork();
  double price = 25.0;
  for (int i = 1; i <= config.price_updates; ++i) {
    s.ScheduleAt(sim::TimePoint::Zero() + config.price_interval * i, [&fabric, &config, &walk,
                                                                      &price, i] {
      price += walk.NextBool(0.5) ? 0.5 : -0.5;
      if (price < 5.0) {
        price = 5.0;
      }
      fabric.member(0).Send(config.mode, std::make_shared<PriceUpdate>(
                                             "opt", static_cast<uint64_t>(i), price, 0));
    });
  }
  s.RunFor(config.price_interval * config.price_updates + sim::Duration::Seconds(2));
  if (config.trace_json != nullptr && config.provenance != nullptr) {
    *config.trace_json = s.ExportTraceEvents(config.provenance->FlowEdges());
  }
  return result;
}

}  // namespace apps
