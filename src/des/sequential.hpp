#pragma once

// Sequential reference kernel. Processes events in global key order with no
// rollback machinery; used for 1-PE measurements, as the golden baseline for
// the Time Warp equivalence tests, and by models that are not reverse-
// computable (the buffered flow-control baseline).

#include <memory>
#include <vector>

#include "des/engine.hpp"
#include "des/event.hpp"
#include "des/ladder_queue.hpp"
#include "des/model.hpp"

namespace hp::obs {
class TelemetryHub;
}

namespace hp::des {

class SequentialEngine final : public Engine {
 public:
  SequentialEngine(Model& model, EngineConfig cfg);
  ~SequentialEngine() override;

  SequentialEngine(const SequentialEngine&) = delete;
  SequentialEngine& operator=(const SequentialEngine&) = delete;

  RunStats run() override;

  // Post-run access for statistics aggregation.
  LpState& state(std::uint32_t lp) noexcept override { return *states_[lp]; }
  const LpState& state(std::uint32_t lp) const noexcept override {
    return *states_[lp];
  }
  std::uint32_t num_lps() const noexcept override { return cfg_.num_lps; }

 private:
  class Ctx;
  class ICtx;

  Model& model_;
  EngineConfig cfg_;
  EventPool pool_;
  LadderQueue pending_;
  std::vector<std::unique_ptr<LpState>> states_;
  std::vector<util::ReversibleRng> rngs_;
  // Latency telemetry (ObsConfig::telemetry): off => zero clock reads on
  // the event loop; on => stamps feed the hub's histograms only.
  bool telemetry_ = false;
  std::unique_ptr<obs::TelemetryHub> hub_;
};

}  // namespace hp::des
