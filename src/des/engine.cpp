#include "des/engine.hpp"

#include "des/conservative.hpp"
#include "des/sequential.hpp"
#include "des/timewarp.hpp"

namespace hp::des {

std::unique_ptr<Engine> make_engine(EngineKind kind, Model& model,
                                    const EngineConfig& cfg,
                                    Time conservative_lookahead) {
  switch (kind) {
    case EngineKind::Sequential:
      return std::make_unique<SequentialEngine>(model, cfg);
    case EngineKind::TimeWarp:
      return std::make_unique<TimeWarpEngine>(model, cfg);
    case EngineKind::Conservative:
      return std::make_unique<ConservativeEngine>(model, cfg,
                                                  conservative_lookahead);
  }
  __builtin_unreachable();
}

}  // namespace hp::des
