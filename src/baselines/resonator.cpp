#include "baselines/resonator.hpp"

#include <algorithm>
#include <stdexcept>

#include "hdc/ops.hpp"
#include "hdc/similarity.hpp"

namespace factorhd::baselines {

ResonatorNetwork::ResonatorNetwork(const CCModel& model, ResonatorOptions opts)
    : model_(&model), opts_(opts) {
  memories_.reserve(model.num_factors());
  for (std::size_t f = 0; f < model.num_factors(); ++f) {
    memories_.emplace_back(model.codebook(f));
  }
}

ResonatorResult ResonatorNetwork::factorize(
    const hdc::Hypervector& target) const {
  const std::size_t f_count = model_->num_factors();
  const std::size_t m = model_->codebook_size();
  const std::size_t d = model_->dim();
  if (target.dim() != d) {
    throw std::invalid_argument("ResonatorNetwork: target dimension mismatch");
  }
  const bool synchronous =
      opts_.update == ResonatorOptions::Update::kSynchronous;
  const bool hardmax = opts_.cleanup == ResonatorOptions::Cleanup::kHardmax;

  // Initial estimates: bipolarized superposition of each codebook (the
  // "everything at once" starting state of the resonator dynamics).
  std::vector<hdc::Hypervector> est(f_count);
  for (std::size_t f = 0; f < f_count; ++f) {
    hdc::Hypervector sum(d);
    for (std::size_t j = 0; j < m; ++j) {
      model_->codebook(f).accumulate_item(j, sum);
    }
    est[f] = hdc::sign_bipolar(sum);
  }

  ResonatorResult result;
  std::vector<std::int64_t> attention(m);
  std::vector<std::int64_t> acc(d);
  std::vector<std::size_t> best_index(f_count, 0);
  // Synchronous sweeps read `prev`, write `est`; sequential sweeps update
  // `est` in place.
  std::vector<hdc::Hypervector> prev;

  for (std::size_t iter = 0; iter < opts_.max_iterations; ++iter) {
    bool changed = false;
    if (synchronous) prev = est;
    const std::vector<hdc::Hypervector>& read = synchronous ? prev : est;

    for (std::size_t f = 0; f < f_count; ++f) {
      // Unbind the other factors' current estimates from the target.
      hdc::Hypervector y = target;
      for (std::size_t j = 0; j < f_count; ++j) {
        if (j != f) hdc::bind_inplace(y, read[j]);
      }
      // Attention over the codebook: one batched packed scan (ỹ is bipolar,
      // so this runs on the word-plane kernels).
      memories_[f].dots(y, attention);
      std::int64_t best = 0;
      for (std::size_t j = 0; j < m; ++j) {
        if (j == 0 || attention[j] > best) {
          best = attention[j];
          best_index[f] = j;
        }
      }
      result.similarity_ops += m;

      hdc::Hypervector next(d);
      if (hardmax) {
        next = model_->codebook(f).item(best_index[f]);
      } else {
        // Project back onto the codebook span and bipolarize.
        std::fill(acc.begin(), acc.end(), 0);
        const std::vector<hdc::Hypervector>& rows = model_->codebook(f).rows();
        for (std::size_t j = 0; j < m; ++j) {
          const auto w = attention[j];
          if (w == 0) continue;
          const auto* item = rows[j].data();
          for (std::size_t k = 0; k < d; ++k) acc[k] += w * item[k];
        }
        auto* pn = next.data();
        for (std::size_t k = 0; k < d; ++k) pn[k] = acc[k] >= 0 ? 1 : -1;
      }
      if (next != est[f]) {
        est[f] = std::move(next);
        changed = true;
      }
    }
    ++result.iterations;
    if (!changed) {
      result.converged = true;
      break;
    }
  }
  result.factors = best_index;
  return result;
}

}  // namespace factorhd::baselines
