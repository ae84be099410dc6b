#pragma once

// LP -> KP -> PE mappings (report Section 3.2.3). The block mapping divides
// the torus into rectangular areas of LPs per KP and contiguous areas of KPs
// per PE, minimizing the boundary circumference and hence inter-PE /
// inter-KP communication. Linear and random mappings exist as ablation
// baselines (the report argues random assignment maximizes IPC).

#include <cstdint>
#include <memory>
#include <vector>

#include "util/macros.hpp"
#include "util/rng.hpp"

namespace hp::net {

class Mapping {
 public:
  virtual ~Mapping() = default;

  virtual std::uint32_t num_lps() const noexcept = 0;
  virtual std::uint32_t num_kps() const noexcept = 0;
  virtual std::uint32_t num_pes() const noexcept = 0;

  virtual std::uint32_t kp_of(std::uint32_t lp) const noexcept = 0;
  virtual std::uint32_t pe_of_kp(std::uint32_t kp) const noexcept = 0;

  std::uint32_t pe_of(std::uint32_t lp) const noexcept {
    return pe_of_kp(kp_of(lp));
  }
};

// Rectangular block decomposition of an n x n torus into a kp_rows x kp_cols
// grid of KP blocks; KPs are assigned to PEs in contiguous row-major runs of
// the KP grid. Works for any n/kp counts (blocks are balanced via integer
// scaling, no divisibility requirement).
class BlockMapping final : public Mapping {
 public:
  BlockMapping(std::int32_t n, std::uint32_t num_kps, std::uint32_t num_pes);

  std::uint32_t num_lps() const noexcept override {
    return static_cast<std::uint32_t>(n_) * static_cast<std::uint32_t>(n_);
  }
  std::uint32_t num_kps() const noexcept override { return kp_rows_ * kp_cols_; }
  std::uint32_t num_pes() const noexcept override { return num_pes_; }

  std::uint32_t kp_of(std::uint32_t lp) const noexcept override;
  std::uint32_t pe_of_kp(std::uint32_t kp) const noexcept override;

  std::uint32_t kp_rows() const noexcept { return kp_rows_; }
  std::uint32_t kp_cols() const noexcept { return kp_cols_; }

 private:
  std::int32_t n_;
  std::uint32_t kp_rows_, kp_cols_;
  std::uint32_t num_pes_;
};

// LPs assigned to KPs in contiguous id runs, KPs to PEs likewise. This is
// the "stripe" mapping: cheap, but each KP block has maximal horizontal
// boundary on a torus.
class LinearMapping final : public Mapping {
 public:
  LinearMapping(std::uint32_t num_lps, std::uint32_t num_kps,
                std::uint32_t num_pes);

  std::uint32_t num_lps() const noexcept override { return num_lps_; }
  std::uint32_t num_kps() const noexcept override { return num_kps_; }
  std::uint32_t num_pes() const noexcept override { return num_pes_; }

  std::uint32_t kp_of(std::uint32_t lp) const noexcept override;
  std::uint32_t pe_of_kp(std::uint32_t kp) const noexcept override;

 private:
  std::uint32_t num_lps_, num_kps_, num_pes_;
};

// Uniform random LP->KP assignment (seeded, balanced to within one LP);
// the worst case for locality, used by the mapping ablation bench.
class RandomMapping final : public Mapping {
 public:
  RandomMapping(std::uint32_t num_lps, std::uint32_t num_kps,
                std::uint32_t num_pes, std::uint64_t seed);

  std::uint32_t num_lps() const noexcept override {
    return static_cast<std::uint32_t>(lp_to_kp_.size());
  }
  std::uint32_t num_kps() const noexcept override { return num_kps_; }
  std::uint32_t num_pes() const noexcept override { return num_pes_; }

  std::uint32_t kp_of(std::uint32_t lp) const noexcept override {
    return lp_to_kp_[lp];
  }
  std::uint32_t pe_of_kp(std::uint32_t kp) const noexcept override;

 private:
  std::uint32_t num_kps_, num_pes_;
  std::vector<std::uint32_t> lp_to_kp_;
};

// Fraction of directed torus links whose endpoints live on different PEs —
// the locality metric the block mapping is designed to minimize.
double inter_pe_link_fraction(const Mapping& m, std::int32_t n);

// Choose a near-square factorization r x c = k with r <= c.
std::pair<std::uint32_t, std::uint32_t> square_factor(std::uint32_t k);

}  // namespace hp::net
