#include "net/mapping.hpp"

#include <algorithm>
#include <numeric>

#include "net/direction.hpp"
#include "net/torus.hpp"

namespace hp::net {

std::pair<std::uint32_t, std::uint32_t> square_factor(std::uint32_t k) {
  HP_ASSERT(k >= 1, "cannot factor 0");
  std::uint32_t best = 1;
  for (std::uint32_t r = 1; r * r <= k; ++r) {
    if (k % r == 0) best = r;
  }
  return {best, k / best};
}

BlockMapping::BlockMapping(std::int32_t n, std::uint32_t num_kps,
                           std::uint32_t num_pes)
    : n_(n), num_pes_(num_pes) {
  HP_ASSERT(n >= 1 && num_kps >= 1 && num_pes >= 1, "bad mapping parameters");
  HP_ASSERT(num_kps <= static_cast<std::uint32_t>(n) * static_cast<std::uint32_t>(n),
            "more KPs (%u) than LPs", num_kps);
  HP_ASSERT(num_pes <= num_kps, "more PEs (%u) than KPs (%u)", num_pes, num_kps);
  auto [r, c] = square_factor(num_kps);
  // Keep blocks as square as possible but never wider/taller than the torus.
  kp_rows_ = std::min<std::uint32_t>(r, static_cast<std::uint32_t>(n));
  kp_cols_ = num_kps / kp_rows_;
  HP_ASSERT(kp_rows_ * kp_cols_ == num_kps, "KP grid %ux%u != %u", kp_rows_,
            kp_cols_, num_kps);
  HP_ASSERT(kp_cols_ <= static_cast<std::uint32_t>(n),
            "KP grid column count %u exceeds torus dimension %d", kp_cols_, n);
}

std::uint32_t BlockMapping::kp_of(std::uint32_t lp) const noexcept {
  const std::uint32_t row = lp / static_cast<std::uint32_t>(n_);
  const std::uint32_t col = lp % static_cast<std::uint32_t>(n_);
  // Balanced block edges by integer scaling (no divisibility requirement).
  const std::uint32_t kr = row * kp_rows_ / static_cast<std::uint32_t>(n_);
  const std::uint32_t kc = col * kp_cols_ / static_cast<std::uint32_t>(n_);
  return kr * kp_cols_ + kc;
}

std::uint32_t BlockMapping::pe_of_kp(std::uint32_t kp) const noexcept {
  // Contiguous row-major runs of the KP grid per PE: PE regions are
  // horizontal bands, so only band boundaries cross PEs.
  return kp * num_pes_ / (kp_rows_ * kp_cols_);
}

LinearMapping::LinearMapping(std::uint32_t num_lps, std::uint32_t num_kps,
                             std::uint32_t num_pes)
    : num_lps_(num_lps), num_kps_(num_kps), num_pes_(num_pes) {
  HP_ASSERT(num_kps >= 1 && num_kps <= num_lps && num_pes >= 1 &&
                num_pes <= num_kps,
            "bad linear mapping parameters");
}

std::uint32_t LinearMapping::kp_of(std::uint32_t lp) const noexcept {
  return static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(lp) * num_kps_ / num_lps_);
}

std::uint32_t LinearMapping::pe_of_kp(std::uint32_t kp) const noexcept {
  return kp * num_pes_ / num_kps_;
}

RandomMapping::RandomMapping(std::uint32_t num_lps, std::uint32_t num_kps,
                             std::uint32_t num_pes, std::uint64_t seed)
    : num_kps_(num_kps), num_pes_(num_pes) {
  HP_ASSERT(num_kps >= 1 && num_kps <= num_lps && num_pes >= 1 &&
                num_pes <= num_kps,
            "bad random mapping parameters");
  // Balanced assignment: shuffle a round-robin fill so each KP gets
  // floor/ceil(num_lps/num_kps) LPs.
  lp_to_kp_.resize(num_lps);
  for (std::uint32_t lp = 0; lp < num_lps; ++lp) lp_to_kp_[lp] = lp % num_kps;
  util::ReversibleRng rng(seed);
  for (std::uint32_t i = num_lps; i > 1; --i) {
    const auto j = static_cast<std::uint32_t>(rng.integer(0, i - 1));
    std::swap(lp_to_kp_[i - 1], lp_to_kp_[j]);
  }
}

std::uint32_t RandomMapping::pe_of_kp(std::uint32_t kp) const noexcept {
  return kp * num_pes_ / num_kps_;
}

double inter_pe_link_fraction(const Mapping& m, std::int32_t n) {
  const Torus t(n);
  std::uint64_t cross = 0, total = 0;
  for (std::uint32_t lp = 0; lp < t.num_nodes(); ++lp) {
    for (Dir d : kAllDirs) {
      ++total;
      if (m.pe_of(lp) != m.pe_of(t.neighbor(lp, d))) ++cross;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(cross) / static_cast<double>(total);
}

}  // namespace hp::net
