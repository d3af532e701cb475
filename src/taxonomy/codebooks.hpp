// Hypervector material for a taxonomy: per-class labels, per-level item
// codebooks, and the global NULL hypervector.
//
// This is the "HV codebooks" box of the paper's Fig. 1(a): encoding a
// taxonomy generates one LABEL HV per class, one codebook per (class,
// subclass level), and a single NULL HV bundled with the label of any class
// an object does not possess.
#pragma once

#include <cstddef>
#include <vector>

#include "hdc/codebook.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/item_memory.hpp"
#include "taxonomy/object.hpp"
#include "taxonomy/taxonomy.hpp"
#include "util/rng.hpp"

namespace factorhd::tax {

/// HV material for one class: its label plus one codebook per subclass level.
struct ClassCodebooks {
  hdc::Hypervector label;
  std::vector<hdc::Codebook> levels;  ///< levels[l-1] covers subclass level l
};

class TaxonomyCodebooks {
 public:
  /// Generates all HVs for `taxonomy` at dimension `dim` from `rng`.
  TaxonomyCodebooks(Taxonomy taxonomy, std::size_t dim, util::Xoshiro256& rng);

  /// Rebuilds from previously generated material (deserialization path).
  /// Validates shapes/dimensions and recomputes the unbinding keys; throws
  /// std::invalid_argument on any mismatch with `taxonomy`.
  static TaxonomyCodebooks from_parts(Taxonomy taxonomy,
                                      hdc::Hypervector null_hv,
                                      std::vector<ClassCodebooks> classes);

  [[nodiscard]] const Taxonomy& taxonomy() const noexcept { return taxonomy_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  [[nodiscard]] const hdc::Hypervector& label(std::size_t cls) const {
    return classes_.at(cls).label;
  }
  [[nodiscard]] const hdc::Hypervector& null_hv() const noexcept {
    return null_;
  }

  /// Codebook of class `cls` at subclass level `level` (1-based).
  [[nodiscard]] const hdc::Codebook& level_codebook(std::size_t cls,
                                                    std::size_t level) const;

  /// Item HV for (class, level, index), unpacked (hdc::Codebook::item).
  [[nodiscard]] hdc::Hypervector item(std::size_t cls, std::size_t level,
                                      std::size_t index) const {
    return level_codebook(cls, level).item(index);
  }

  /// Product of all class labels except `cls` — the unbinding key used by
  /// the FactorHD factorization algorithm. Precomputed at construction.
  [[nodiscard]] const hdc::Hypervector& other_labels_key(
      std::size_t cls) const {
    return other_label_keys_.at(cls);
  }

  /// Total storage footprint of all codebooks in item HVs (diagnostics).
  [[nodiscard]] std::size_t total_items() const noexcept;

 private:
  /// Deserialization constructor backing from_parts.
  struct FromPartsTag {};
  TaxonomyCodebooks(FromPartsTag, Taxonomy taxonomy, hdc::Hypervector null_hv,
                    std::vector<ClassCodebooks> classes);

  void build_other_label_keys();

  Taxonomy taxonomy_;
  std::size_t dim_;
  hdc::Hypervector null_;
  std::vector<ClassCodebooks> classes_;
  std::vector<hdc::Hypervector> other_label_keys_;
};

}  // namespace factorhd::tax
