#include "hdc/codebook.hpp"

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "hdc/kernels/plane.hpp"
#include "hdc/ops.hpp"
#include "hdc/random.hpp"

namespace factorhd::hdc {

// Immutable after construction except for the int32 view, which rows()
// builds once; `rows_ready` publishes it to rows_materialized().
struct Codebook::Storage {
  std::size_t words = 0;
  std::vector<std::uint64_t> sign;     ///< empty without planes
  std::vector<std::uint64_t> nonzero;  ///< empty unless some entry is 0
  std::once_flag rows_once;
  std::atomic<bool> rows_ready{false};
  std::vector<Hypervector> rows;
};

Codebook::Codebook(std::size_t dim, std::size_t size, util::Xoshiro256& rng,
                   std::string name)
    : dim_(dim),
      size_(size),
      storage_(std::make_shared<Storage>()),
      name_(std::move(name)) {
  if (dim == 0) throw std::invalid_argument("Codebook: zero dimension");
  if (size == 0) throw std::invalid_argument("Codebook: zero size");
  Storage& s = *storage_;
  s.words = kernels::plane_words(dim);
  s.sign.resize(size * s.words);
  for (std::size_t j = 0; j < size; ++j) {
    random_sign_words(dim, rng, &s.sign[j * s.words]);
  }
}

Codebook::Codebook(std::vector<Hypervector> items, std::string name)
    : size_(items.size()),
      storage_(std::make_shared<Storage>()),
      name_(std::move(name)) {
  if (items.empty()) throw std::invalid_argument("Codebook: empty item set");
  dim_ = items[0].dim();
  if (dim_ == 0) throw std::invalid_argument("Codebook: zero-dimension items");
  for (const auto& v : items) {
    if (v.dim() != dim_) {
      throw std::invalid_argument("Codebook: inconsistent item dimensions");
    }
  }
  Storage& s = *storage_;
  s.words = kernels::plane_words(dim_);
  std::vector<std::uint64_t> sign;
  std::vector<std::uint64_t> nonzero;
  if (kernels::pack_rows(items, dim_, sign, nonzero)) {
    s.sign = std::move(sign);
    s.nonzero = std::move(nonzero);
  } else {
    s.rows = std::move(items);
    s.rows_ready.store(true, std::memory_order_release);
  }
}

Hypervector Codebook::item(std::size_t index) const {
  if (index >= size_) throw std::out_of_range("Codebook::item: bad index");
  if (!has_planes()) return storage_->rows[index];
  Hypervector out(dim_);
  accumulate_item(index, out);
  return out;
}

void Codebook::accumulate_item(std::size_t index, Hypervector& target) const {
  if (index >= size_) {
    throw std::out_of_range("Codebook::accumulate_item: bad index");
  }
  const Storage& s = *storage_;
  if (!has_planes()) {
    accumulate(target, s.rows[index]);
    return;
  }
  if (target.dim() != dim_) {
    throw std::invalid_argument(
        "Codebook::accumulate_item: dimension mismatch");
  }
  const std::size_t at = index * s.words;
  accumulate_planes(target, &s.sign[at],
                    s.nonzero.empty() ? nullptr : &s.nonzero[at]);
}

bool Codebook::has_planes() const noexcept { return !storage_->sign.empty(); }

std::span<const std::uint64_t> Codebook::sign_plane() const noexcept {
  return storage_->sign;
}

std::span<const std::uint64_t> Codebook::nonzero_plane() const noexcept {
  return storage_->nonzero;
}

std::shared_ptr<const void> Codebook::storage() const noexcept {
  return storage_;
}

const std::vector<Hypervector>& Codebook::rows() const {
  Storage& s = *storage_;
  if (!s.rows_ready.load(std::memory_order_acquire)) {
    std::call_once(s.rows_once, [&] {
      s.rows = kernels::unpack_rows(
          size_, dim_, s.sign.data(),
          s.nonzero.empty() ? nullptr : s.nonzero.data());
      s.rows_ready.store(true, std::memory_order_release);
    });
  }
  return s.rows;
}

bool Codebook::rows_materialized() const noexcept {
  return storage_->rows_ready.load(std::memory_order_acquire);
}

}  // namespace factorhd::hdc
