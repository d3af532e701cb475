#include "baselines/imc_factorizer.hpp"

#include <algorithm>
#include <stdexcept>

#include "hdc/ops.hpp"
#include "hdc/similarity.hpp"

namespace factorhd::baselines {

ImcFactorizer::ImcFactorizer(const CCModel& model, ImcOptions opts)
    : model_(&model), opts_(opts) {
  memories_.reserve(model.num_factors());
  for (std::size_t f = 0; f < model.num_factors(); ++f) {
    memories_.emplace_back(model.codebook(f));
  }
}

ImcResult ImcFactorizer::factorize(const hdc::Hypervector& target) const {
  const std::size_t f_count = model_->num_factors();
  const std::size_t m = model_->codebook_size();
  const std::size_t d = model_->dim();
  if (target.dim() != d) {
    throw std::invalid_argument("ImcFactorizer: target dimension mismatch");
  }

  util::Xoshiro256 rng(opts_.seed);
  std::vector<hdc::Hypervector> est(f_count);
  for (std::size_t f = 0; f < f_count; ++f) {
    // Random bipolar initial estimates: with stochastic dynamics there is no
    // benefit to the superposition start, and random starts decorrelate
    // repeated trials.
    hdc::Hypervector init(d);
    auto* p = init.data();
    for (std::size_t k = 0; k < d; ++k) p[k] = rng.bipolar();
    est[f] = std::move(init);
  }

  ImcResult result;
  std::vector<std::int64_t> raw(m);
  std::vector<double> attention(m);
  std::vector<double> acc(d);
  std::vector<std::size_t> best_index(f_count, 0);

  for (std::size_t iter = 0; iter < opts_.max_iterations; ++iter) {
    for (std::size_t f = 0; f < f_count; ++f) {
      hdc::Hypervector y = target;
      for (std::size_t j = 0; j < f_count; ++j) {
        if (j != f) hdc::bind_inplace(y, est[j]);
      }
      // Noisy normalized attention with sparse threshold activation. The
      // exact similarities come from one batched packed scan (ỹ is bipolar);
      // the simulated analog readout noise is added on top.
      memories_[f].dots(y, raw);
      double best = -1e300;
      for (std::size_t j = 0; j < m; ++j) {
        const double sim =
            static_cast<double>(raw[j]) / static_cast<double>(d);
        const double noisy = sim + opts_.noise_stddev * rng.normal();
        attention[j] = noisy;
        if (noisy > best) {
          best = noisy;
          best_index[f] = j;
        }
      }
      result.similarity_ops += m;
      std::size_t active = 0;
      for (std::size_t j = 0; j < m; ++j) {
        if (attention[j] < opts_.activation_threshold) {
          attention[j] = 0.0;
        } else if (attention[j] > 0.0) {
          ++active;
        }
      }
      // If the activation silenced everything, keep only the argmax so the
      // dynamics always move toward *some* codevector.
      if (active == 0) attention[best_index[f]] = best;

      std::fill(acc.begin(), acc.end(), 0.0);
      const std::vector<hdc::Hypervector>& rows = model_->codebook(f).rows();
      for (std::size_t j = 0; j < m; ++j) {
        const double w = attention[j];
        if (w == 0.0) continue;
        const auto* item = rows[j].data();
        for (std::size_t k = 0; k < d; ++k) acc[k] += w * item[k];
      }
      hdc::Hypervector next(d);
      auto* pn = next.data();
      for (std::size_t k = 0; k < d; ++k) {
        // Stochastic tie-break keeps zero-sum dimensions from freezing.
        pn[k] = acc[k] > 0.0 ? 1 : (acc[k] < 0.0 ? -1 : rng.bipolar());
      }
      est[f] = std::move(next);
    }
    ++result.iterations;

    // Explicit solution check: re-encode the current argmax decode and
    // compare with the target. Products of bipolar codevectors are exact,
    // so a correct decode reproduces the target verbatim.
    const hdc::Hypervector decoded = model_->encode(best_index);
    if (decoded == target) {
      result.converged = true;
      break;
    }
  }
  result.factors = best_index;
  return result;
}

}  // namespace factorhd::baselines
