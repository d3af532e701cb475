#include "core/encoder.hpp"

#include <stdexcept>

#include "hdc/ops.hpp"

namespace factorhd::core {

hdc::Hypervector Encoder::encode_clause(
    std::size_t cls, const std::optional<tax::Path>& path) const {
  hdc::Hypervector clause(books_->dim());
  if (opts_.include_labels) {
    hdc::accumulate(clause, books_->label(cls));
  }
  if (path) {
    for (std::size_t l = 1; l <= path->size(); ++l) {
      books_->level_codebook(cls, l).accumulate_item((*path)[l - 1], clause);
    }
  } else {
    hdc::accumulate(clause, books_->null_hv());
  }
  if (opts_.clip_ternary) hdc::clip_ternary_inplace(clause);
  return clause;
}

hdc::Hypervector Encoder::encode_object(const tax::Object& obj) const {
  return encode_object_prefix(obj, books_->taxonomy().max_depth());
}

hdc::Hypervector Encoder::encode_object_prefix(const tax::Object& obj,
                                               std::size_t depth) const {
  const tax::Taxonomy& t = books_->taxonomy();
  if (!obj.valid_for(t)) {
    throw std::invalid_argument("Encoder: object invalid for taxonomy");
  }
  hdc::Hypervector product;
  for (std::size_t c = 0; c < t.num_classes(); ++c) {
    std::optional<tax::Path> truncated = obj.maybe_path(c);
    if (truncated && truncated->size() > depth) {
      truncated->resize(depth);
    }
    hdc::Hypervector clause = encode_clause(c, truncated);
    if (product.empty()) {
      product = std::move(clause);
    } else {
      hdc::bind_inplace(product, clause);
    }
  }
  return product;
}

hdc::Hypervector Encoder::encode_scene(const tax::Scene& scene) const {
  if (scene.empty()) {
    throw std::invalid_argument("Encoder: empty scene");
  }
  hdc::Hypervector sum = encode_object(scene[0]);
  for (std::size_t i = 1; i < scene.size(); ++i) {
    hdc::accumulate(sum, encode_object(scene[i]));
  }
  return sum;
}

}  // namespace factorhd::core
